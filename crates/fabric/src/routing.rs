//! Routing tables: Port Based Routing and Hierarchy Based Routing.
//!
//! "A CXL fabric contains several domains connected via HBR links, where
//! each one consists of one or more switches that are PBR capable. [...]
//! An intra-domain switch uses 12-bit PBR IDs to address up to 4096 unique
//! edge ports" (§2.1). A [`RoutingTable`] resolves a destination node to
//! one or more candidate output ports: exact PBR entries for nodes in the
//! local domain, HBR entries (by destination domain) for foreign nodes.
//! Multiple candidates per destination enable adaptive routing.

use serde::{Deserialize, Serialize};

use fcc_proto::addr::NodeId;

/// A routing domain (a set of PBR-interconnected switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct DomainId(pub u8);

/// Per-switch routing state, laid out like the hardware tables: dense
/// rows indexed by the destination's PBR ID (and by domain number for
/// HBR), grown on demand up to the highest ID installed. A lookup is two
/// bounds-checked loads, with no hashing on the per-flit path.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoutingTable {
    local_domain: DomainId,
    /// PBR: candidate output ports per destination node (primary first);
    /// an empty row means no entry.
    pbr: Vec<Vec<usize>>,
    /// HBR: candidate output ports per foreign domain.
    hbr: Vec<Vec<usize>>,
    /// Which domain each known node lives in.
    domain_of: Vec<Option<DomainId>>,
    /// Bumped by every mutation, so holders of routing-derived state
    /// (the wormhole switch's parked escape decisions) can tell when to
    /// re-evaluate it.
    version: u64,
}

/// The row for `idx`, growing `table` to hold it.
fn row<T: Default>(table: &mut Vec<T>, idx: usize) -> &mut T {
    if table.len() <= idx {
        table.resize_with(idx + 1, T::default);
    }
    &mut table[idx]
}

impl RoutingTable {
    /// Creates an empty table for a switch in `local_domain`.
    pub fn new(local_domain: DomainId) -> Self {
        RoutingTable {
            local_domain,
            ..Default::default()
        }
    }

    /// The switch's own domain.
    pub fn local_domain(&self) -> DomainId {
        self.local_domain
    }

    /// Mutation counter: changes whenever any route or domain record is
    /// installed, removed, or cleared.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Installs (or extends) a PBR route: `dst` reachable via `port`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not PBR-addressable (12-bit ID space).
    pub fn add_pbr(&mut self, dst: NodeId, port: usize) {
        assert!(dst.is_pbr_addressable(), "node {dst} exceeds PBR ID space");
        self.version += 1;
        let ports = row(&mut self.pbr, usize::from(dst.0));
        if !ports.contains(&port) {
            ports.push(port);
        }
        let local = self.local_domain;
        row(&mut self.domain_of, usize::from(dst.0)).get_or_insert(local);
    }

    /// Installs `dst`'s whole PBR row: its candidates become `ports`,
    /// primary first, replacing any it had. The builder writes each row
    /// once at its final length; [`RoutingTable::add_pbr`] extends a row
    /// at run time.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not PBR-addressable (12-bit ID space).
    pub fn set_pbr(&mut self, dst: NodeId, ports: &[usize]) {
        assert!(dst.is_pbr_addressable(), "node {dst} exceeds PBR ID space");
        self.version += 1;
        let candidates = row(&mut self.pbr, usize::from(dst.0));
        candidates.clear();
        candidates.extend_from_slice(ports);
        let local = self.local_domain;
        row(&mut self.domain_of, usize::from(dst.0)).get_or_insert(local);
    }

    /// Installs an HBR route toward a foreign domain.
    pub fn add_hbr(&mut self, domain: DomainId, port: usize) {
        self.version += 1;
        let ports = row(&mut self.hbr, usize::from(domain.0));
        if !ports.contains(&port) {
            ports.push(port);
        }
    }

    /// Records that `node` lives in `domain` (HBR classification).
    pub fn set_domain(&mut self, node: NodeId, domain: DomainId) {
        self.version += 1;
        *row(&mut self.domain_of, usize::from(node.0)) = Some(domain);
    }

    /// Resolves `dst` to candidate output ports, primary first.
    ///
    /// Resolution order: exact PBR entry, then the HBR route of the node's
    /// domain (if foreign), then `None` (unroutable — the switch drops and
    /// lets the fabric manager hear about it).
    #[inline]
    pub fn route(&self, dst: NodeId) -> Option<&[usize]> {
        let idx = usize::from(dst.0);
        if let Some(ports) = self.pbr.get(idx).filter(|p| !p.is_empty()) {
            return Some(ports);
        }
        let domain = self.domain_of.get(idx).copied().flatten()?;
        if domain == self.local_domain {
            return None;
        }
        self.hbr
            .get(usize::from(domain.0))
            .filter(|p| !p.is_empty())
            .map(Vec::as_slice)
    }

    /// Removes every PBR route (and the domain record) for `dst`; returns
    /// whether an entry existed. Hot-remove prunes with this only after
    /// the node has quiesced — pruning a live destination turns its
    /// in-flight flits into unroutable drops at [`crate::switch`] admit.
    pub fn remove_pbr(&mut self, dst: NodeId) -> bool {
        self.version += 1;
        let idx = usize::from(dst.0);
        if let Some(d) = self.domain_of.get_mut(idx) {
            *d = None;
        }
        self.pbr
            .get_mut(idx)
            .is_some_and(|ports| !std::mem::take(ports).is_empty())
    }

    /// Number of installed PBR entries.
    pub fn pbr_entries(&self) -> usize {
        self.pbr.iter().filter(|p| !p.is_empty()).count()
    }

    /// Clears everything (fabric-manager re-initialization).
    pub fn clear(&mut self) {
        self.version += 1;
        self.pbr.clear();
        self.hbr.clear();
        self.domain_of.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pbr_exact_match_wins() {
        let mut rt = RoutingTable::new(DomainId(0));
        rt.add_pbr(NodeId(5), 2);
        rt.add_hbr(DomainId(1), 7);
        rt.set_domain(NodeId(5), DomainId(1));
        // Even though node 5 is marked foreign, the exact entry wins.
        assert_eq!(rt.route(NodeId(5)), Some(&[2][..]));
    }

    #[test]
    fn foreign_nodes_use_hbr() {
        let mut rt = RoutingTable::new(DomainId(0));
        rt.add_hbr(DomainId(1), 3);
        rt.set_domain(NodeId(9), DomainId(1));
        assert_eq!(rt.route(NodeId(9)), Some(&[3][..]));
    }

    #[test]
    fn unknown_nodes_are_unroutable() {
        let rt = RoutingTable::new(DomainId(0));
        assert_eq!(rt.route(NodeId(1)), None);
    }

    #[test]
    fn local_domain_without_pbr_is_unroutable() {
        let mut rt = RoutingTable::new(DomainId(0));
        rt.set_domain(NodeId(4), DomainId(0));
        assert_eq!(rt.route(NodeId(4)), None);
    }

    #[test]
    fn alternates_accumulate_without_duplicates() {
        let mut rt = RoutingTable::new(DomainId(0));
        rt.add_pbr(NodeId(1), 0);
        rt.add_pbr(NodeId(1), 4);
        rt.add_pbr(NodeId(1), 0);
        assert_eq!(rt.route(NodeId(1)), Some(&[0, 4][..]));
        assert_eq!(rt.pbr_entries(), 1);
    }

    #[test]
    #[should_panic(expected = "PBR ID space")]
    fn oversized_node_id_rejected() {
        let mut rt = RoutingTable::new(DomainId(0));
        rt.add_pbr(NodeId(4096), 0);
    }

    #[test]
    fn remove_pbr_forgets_all_alternates() {
        let mut rt = RoutingTable::new(DomainId(0));
        rt.add_pbr(NodeId(7), 1);
        rt.add_pbr(NodeId(7), 3);
        assert!(rt.remove_pbr(NodeId(7)));
        assert_eq!(rt.route(NodeId(7)), None);
        assert_eq!(rt.pbr_entries(), 0);
        assert!(!rt.remove_pbr(NodeId(7)));
    }

    #[test]
    fn remove_then_reinstall_routes_again() {
        let mut rt = RoutingTable::new(DomainId(0));
        rt.add_pbr(NodeId(2), 4);
        rt.remove_pbr(NodeId(2));
        rt.add_pbr(NodeId(2), 5);
        assert_eq!(rt.route(NodeId(2)), Some(&[5][..]));
    }

    #[test]
    fn sparse_high_pbr_id_routes_without_disturbing_low_ids() {
        let mut rt = RoutingTable::new(DomainId(0));
        rt.add_pbr(NodeId(3), 1);
        rt.add_pbr(NodeId(4095), 6);
        rt.add_pbr(NodeId(4095), 2);
        assert_eq!(
            rt.route(NodeId(4095)),
            Some(&[6, 2][..]),
            "candidate order kept"
        );
        assert_eq!(rt.route(NodeId(3)), Some(&[1][..]));
        assert_eq!(rt.route(NodeId(2000)), None, "gap rows are empty");
        assert_eq!(rt.pbr_entries(), 2);
        assert!(rt.remove_pbr(NodeId(4095)));
        assert_eq!(rt.route(NodeId(4095)), None);
        assert_eq!(rt.pbr_entries(), 1);
        // Beyond the table (and beyond the 12-bit space) is unroutable.
        assert_eq!(rt.route(NodeId(u16::MAX)), None);
        assert!(!rt.remove_pbr(NodeId(u16::MAX)));
    }

    #[test]
    fn every_mutation_bumps_the_version() {
        let mut rt = RoutingTable::new(DomainId(0));
        let mut last = rt.version();
        let mut bumped = |rt: &RoutingTable| {
            let moved = rt.version() != last;
            last = rt.version();
            moved
        };
        rt.add_pbr(NodeId(1), 0);
        assert!(bumped(&rt));
        rt.add_hbr(DomainId(1), 2);
        assert!(bumped(&rt));
        rt.set_domain(NodeId(9), DomainId(1));
        assert!(bumped(&rt));
        rt.remove_pbr(NodeId(1));
        assert!(bumped(&rt));
        rt.clear();
        assert!(bumped(&rt));
        let _ = rt.route(NodeId(9));
        assert!(!bumped(&rt), "lookups leave it alone");
    }

    #[test]
    fn clear_resets() {
        let mut rt = RoutingTable::new(DomainId(2));
        rt.add_pbr(NodeId(1), 0);
        rt.clear();
        assert_eq!(rt.route(NodeId(1)), None);
        assert_eq!(rt.local_domain(), DomainId(2));
    }
}
