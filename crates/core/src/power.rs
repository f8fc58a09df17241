//! Chip-level power breakdowns.

use mcpat_circuit::metrics::StaticPower;
use mcpat_mcore::core::{CorePower, PowerSink};

/// One top-level component of the chip power breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipPowerItem {
    /// Component name (`cores`, `l2`, `l3`, `noc`, `mc`, `io`, `clock`,
    /// `shared-fpu`).
    pub name: String,
    /// Dynamic power, W.
    pub dynamic: f64,
    /// Static power, W.
    pub leakage: StaticPower,
}

impl ChipPowerItem {
    /// Total power of the item, W.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dynamic + self.leakage.total()
    }
}

/// A whole-chip power result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipPower {
    /// Top-level components.
    pub items: Vec<ChipPowerItem>,
    /// The per-unit breakdown of one core (all cores are identical).
    pub core_detail: CorePower,
}

impl PowerSink for ChipPower {
    fn item(&mut self, name: &'static str, dynamic: f64, leakage: StaticPower) {
        self.items.push(ChipPowerItem {
            name: name.into(),
            dynamic,
            leakage,
        });
    }
}

impl ChipPower {
    /// A breakdown with no items yet, sized for the at most 8 a chip
    /// emits.
    pub(crate) fn empty() -> ChipPower {
        ChipPower {
            items: Vec::with_capacity(8),
            core_detail: CorePower { items: vec![] },
        }
    }

    /// Total dynamic power, W.
    #[must_use]
    pub fn dynamic(&self) -> f64 {
        self.items.iter().map(|i| i.dynamic).sum()
    }

    /// Total leakage, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        self.items.iter().map(|i| i.leakage).sum()
    }

    /// Total chip power, W.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dynamic() + self.leakage().total()
    }

    /// Looks up a top-level item by name.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&ChipPowerItem> {
        self.items.iter().find(|i| i.name == name)
    }

    /// The fraction of total power a component contributes.
    #[must_use]
    pub fn share(&self, name: &str) -> f64 {
        match self.component(name) {
            Some(item) if self.total() > 0.0 => item.total() / self.total(),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn item(name: &str, d: f64, l: f64) -> ChipPowerItem {
        ChipPowerItem {
            name: name.into(),
            dynamic: d,
            leakage: StaticPower::new(l, 0.0),
        }
    }

    #[test]
    fn totals_and_shares() {
        let p = ChipPower {
            items: vec![item("cores", 30.0, 10.0), item("l2", 5.0, 5.0)],
            core_detail: CorePower { items: vec![] },
        };
        assert!((p.total() - 50.0).abs() < 1e-12);
        assert!((p.share("cores") - 0.8).abs() < 1e-12);
        assert_eq!(p.share("nothing"), 0.0);
    }
}
