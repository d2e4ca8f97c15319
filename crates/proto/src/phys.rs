//! Physical layer: link speeds, bifurcation, flit framing and timing.
//!
//! The Flex Bus physical layer "prepares transmitted data upon receiving
//! upper link-layer packets, deserializes the data received from the
//! physical bus" (§2.1). For the simulator the physical layer reduces to a
//! timing model: given a flit size, a lane count and a transfer rate, how
//! long does the flit occupy the wire, and what is the usable bandwidth
//! after encoding overheads?

use serde::{Deserialize, Serialize};

use fcc_sim::SimTime;

use crate::flit::FlitMode;

/// PCIe/CXL per-lane transfer rates, in giga-transfers per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkSpeed {
    /// PCIe Gen3, 8 GT/s (128b/130b encoding).
    Gen3,
    /// PCIe Gen4, 16 GT/s (128b/130b encoding).
    Gen4,
    /// PCIe Gen5 / CXL 2.0, 32 GT/s (128b/130b encoding).
    Gen5,
    /// PCIe Gen6 / CXL 3.0, 64 GT/s (PAM4 + FLIT FEC).
    Gen6,
}

impl LinkSpeed {
    /// Raw transfer rate per lane, in GT/s.
    pub fn gt_per_s(self) -> f64 {
        match self {
            LinkSpeed::Gen3 => 8.0,
            LinkSpeed::Gen4 => 16.0,
            LinkSpeed::Gen5 => 32.0,
            LinkSpeed::Gen6 => 64.0,
        }
    }

    /// Fraction of raw bits available to the data stream after line
    /// encoding and (for Gen6) FEC overhead.
    pub fn encoding_efficiency(self) -> f64 {
        match self {
            // 128b/130b.
            LinkSpeed::Gen3 | LinkSpeed::Gen4 | LinkSpeed::Gen5 => 128.0 / 130.0,
            // PAM4 with FLIT-level FEC: ~3% overhead.
            LinkSpeed::Gen6 => 0.97,
        }
    }
}

/// Lane bifurcation of a Flex Bus port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bifurcation {
    /// Four lanes.
    X4,
    /// Eight lanes.
    X8,
    /// Sixteen lanes.
    X16,
}

impl Bifurcation {
    /// Number of lanes.
    pub fn lanes(self) -> u32 {
        match self {
            Bifurcation::X4 => 4,
            Bifurcation::X8 => 8,
            Bifurcation::X16 => 16,
        }
    }
}

/// Physical-layer configuration of one Flex Bus link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhysConfig {
    /// Per-lane transfer rate.
    pub speed: LinkSpeed,
    /// Lane count.
    pub width: Bifurcation,
    /// Flit framing mode (68 B for CXL 1.1/2.0, 256 B for CXL 3.x).
    pub flit_mode: FlitMode,
    /// One-way propagation delay of the physical medium (cable/trace plus
    /// SerDes latency).
    pub propagation: SimTime,
}

impl PhysConfig {
    /// A CXL 2.0-style x16 Gen5 link with 68 B flits, as on the Omega
    /// testbed the paper measures (Table 2).
    pub fn omega_like() -> Self {
        PhysConfig {
            speed: LinkSpeed::Gen5,
            width: Bifurcation::X16,
            flit_mode: FlitMode::Flit68,
            propagation: SimTime::from_ns(25.0),
        }
    }

    /// A CXL 3.0-style x16 Gen6 link with 256 B flits.
    pub fn cxl3_like() -> Self {
        PhysConfig {
            speed: LinkSpeed::Gen6,
            width: Bifurcation::X16,
            flit_mode: FlitMode::Flit256,
            propagation: SimTime::from_ns(25.0),
        }
    }

    /// Raw aggregate bandwidth in Gbit/s (before encoding overhead).
    pub fn raw_gbps(&self) -> f64 {
        self.speed.gt_per_s() * self.width.lanes() as f64
    }

    /// Usable bandwidth in Gbit/s after line-encoding overhead.
    pub fn effective_gbps(&self) -> f64 {
        self.raw_gbps() * self.speed.encoding_efficiency()
    }

    /// Time for one flit of the configured mode to serialize onto the wire.
    pub fn flit_serialization(&self) -> SimTime {
        fcc_sim::serialization_time(self.flit_mode.bytes(), self.effective_gbps())
    }

    /// Time for `bytes` of payload to serialize, accounting for flit
    /// framing: payload is carried in whole flits, each of which has a
    /// fixed header+CRC overhead.
    pub fn payload_serialization(&self, bytes: u64) -> SimTime {
        let per_flit = self.flit_mode.payload_bytes();
        let flits = bytes.div_ceil(per_flit).max(1);
        self.flit_serialization() * flits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_math() {
        let cfg = PhysConfig::omega_like();
        assert!((cfg.raw_gbps() - 512.0).abs() < 1e-9);
        let eff = cfg.effective_gbps();
        assert!(eff > 500.0 && eff < 512.0);
    }

    #[test]
    fn gen6_x16_hits_one_twenty_eight_gbytes() {
        let cfg = PhysConfig::cxl3_like();
        // 64 GT/s x16 = 1024 Gbit/s raw = 128 GB/s.
        assert!((cfg.raw_gbps() - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn flit_serialization_is_sub_microsecond() {
        let cfg = PhysConfig::omega_like();
        let t = cfg.flit_serialization();
        // 68 B at ~504 Gbit/s ≈ 1.08 ns.
        assert!(t.as_ns() > 0.9 && t.as_ns() < 1.3, "{t}");
    }

    #[test]
    fn payload_rounds_up_to_flits() {
        let cfg = PhysConfig::omega_like();
        let one = cfg.payload_serialization(1);
        let full = cfg.payload_serialization(cfg.flit_mode.payload_bytes());
        assert_eq!(one, full);
        let two = cfg.payload_serialization(cfg.flit_mode.payload_bytes() + 1);
        assert_eq!(two, full * 2);
    }

    #[test]
    fn narrower_links_are_slower() {
        let wide = PhysConfig::omega_like();
        let narrow = PhysConfig {
            width: Bifurcation::X4,
            ..wide
        };
        assert!(narrow.flit_serialization() > wide.flit_serialization());
        assert_eq!(narrow.raw_gbps(), wide.raw_gbps() / 4.0);
    }
}
