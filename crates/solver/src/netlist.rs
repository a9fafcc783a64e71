//! Transistor-level netlist: nodes, MOS devices, rails, and current
//! injections.
//!
//! This is the "deck" the DC solver operates on. Standard cells build
//! one of these per topology; the characterization sweeps then vary the
//! node injections (loading currents) and rail values.

use nanoleak_device::{Bias, Transistor};

/// Index of a circuit node within a [`MosNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A MOSFET instance: a [`Transistor`] plus its four node connections.
#[derive(Debug, Clone)]
pub struct Device {
    /// The transistor model.
    pub transistor: Transistor,
    /// Drain node.
    pub d: NodeId,
    /// Gate node.
    pub g: NodeId,
    /// Source node.
    pub s: NodeId,
    /// Bulk node.
    pub b: NodeId,
}

impl Device {
    /// The device's bias when the nodes sit at `voltages` (indexed by
    /// node) \[V\].
    pub fn bias_at(&self, voltages: &[f64]) -> Bias {
        Bias::new(voltages[self.g.0], voltages[self.d.0], voltages[self.s.0], voltages[self.b.0])
    }
}

/// A transistor-level circuit for DC leakage analysis.
///
/// ```
/// use nanoleak_device::{DeviceDesign, MosKind, Transistor};
/// use nanoleak_solver::MosNetlist;
///
/// let mut nl = MosNetlist::new();
/// let vdd = nl.add_fixed_node("vdd", 0.9);
/// let gnd = nl.add_fixed_node("gnd", 0.0);
/// let vin = nl.add_fixed_node("in", 0.0);
/// let out = nl.add_node("out");
/// let n = Transistor::from_design(&DeviceDesign::nano25(MosKind::Nmos));
/// let p = Transistor::from_design(&DeviceDesign::nano25(MosKind::Pmos));
/// nl.add_mos(n, out, vin, gnd, gnd);
/// nl.add_mos(p, out, vin, vdd, vdd);
/// assert_eq!(nl.unknown_nodes(), vec![out]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MosNetlist {
    names: Vec<String>,
    fixed: Vec<Option<f64>>,
    injections: Vec<f64>,
    devices: Vec<Device>,
}

impl MosNetlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a floating (unknown-voltage) node.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.names.push(name.to_string());
        self.fixed.push(None);
        self.injections.push(0.0);
        NodeId(self.names.len() - 1)
    }

    /// Adds a node pinned to a rail/source voltage.
    pub fn add_fixed_node(&mut self, name: &str, volts: f64) -> NodeId {
        let id = self.add_node(name);
        self.fixed[id.0] = Some(volts);
        id
    }

    /// Pins an existing node to a voltage (or re-pins a rail).
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn fix(&mut self, node: NodeId, volts: f64) {
        self.fixed[node.0] = Some(volts);
    }

    /// Sets the external current injected *into* the node \[A\]
    /// (replaces any previous injection). This is how loading currents
    /// are applied during characterization.
    pub fn set_injection(&mut self, node: NodeId, amps: f64) {
        self.injections[node.0] = amps;
    }

    /// The current injected into a node \[A\].
    pub fn injection(&self, node: NodeId) -> f64 {
        self.injections[node.0]
    }

    /// Adds a MOSFET; returns its device index.
    pub fn add_mos(
        &mut self,
        transistor: Transistor,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
    ) -> usize {
        let max = [d, g, s, b].into_iter().map(|n| n.0).max().unwrap_or(0);
        assert!(max < self.names.len(), "device references node {max} which does not exist");
        self.devices.push(Device { transistor, d, g, s, b });
        self.devices.len() - 1
    }

    /// Number of nodes (fixed + unknown).
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The devices, in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The node's pinned voltage, if fixed.
    pub fn fixed_voltage(&self, node: NodeId) -> Option<f64> {
        self.fixed[node.0]
    }

    /// All unknown (floating) nodes, in index order.
    pub fn unknown_nodes(&self) -> Vec<NodeId> {
        (0..self.names.len()).filter(|&i| self.fixed[i].is_none()).map(NodeId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_device::{DeviceDesign, MosKind};

    fn t() -> Transistor {
        Transistor::from_design(&DeviceDesign::nano25(MosKind::Nmos))
    }

    #[test]
    fn node_bookkeeping() {
        let mut nl = MosNetlist::new();
        let a = nl.add_node("a");
        let b = nl.add_fixed_node("b", 0.9);
        assert_eq!(nl.node_count(), 2);
        assert_eq!(nl.fixed_voltage(a), None);
        assert_eq!(nl.fixed_voltage(b), Some(0.9));
        assert_eq!(nl.unknown_nodes(), vec![a]);
    }

    #[test]
    fn fix_pins_and_repins_a_node() {
        let mut nl = MosNetlist::new();
        let a = nl.add_node("a");
        nl.fix(a, 0.45);
        assert_eq!(nl.fixed_voltage(a), Some(0.45));
        assert!(nl.unknown_nodes().is_empty());
        nl.fix(a, 0.9);
        assert_eq!(nl.fixed_voltage(a), Some(0.9));
    }

    #[test]
    fn injections_set_and_clear() {
        let mut nl = MosNetlist::new();
        let a = nl.add_node("a");
        nl.set_injection(a, 2e-6);
        assert_eq!(nl.injection(a), 2e-6);
        nl.set_injection(a, 0.0);
        assert_eq!(nl.injection(a), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn dangling_device_rejected() {
        let mut nl = MosNetlist::new();
        let a = nl.add_node("a");
        nl.add_mos(t(), a, a, a, NodeId(5));
    }
}
