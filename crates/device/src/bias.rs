//! Bias points, terminal currents, and leakage breakdowns.

use serde::{Deserialize, Serialize};

/// N-channel or P-channel MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MosKind {
    /// N-channel device (source-side carriers are electrons).
    Nmos,
    /// P-channel device (handled internally by the polarity transform
    /// `I_p(v) = -I_n(-v)` on an n-like core model with p-type parameters).
    Pmos,
}

impl MosKind {
    /// `true` for [`MosKind::Nmos`].
    #[inline]
    pub fn is_n(self) -> bool {
        matches!(self, MosKind::Nmos)
    }
}

/// Absolute node voltages at the four MOSFET terminals \[V\].
///
/// ```
/// use nanoleak_device::Bias;
/// // An OFF NMOS in an inverter with input 0, output 1 (VDD = 0.9 V):
/// let b = Bias::new(0.0, 0.9, 0.0, 0.0);
/// assert_eq!(b.vgs(), 0.0);
/// assert_eq!(b.vds(), 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bias {
    /// Gate node voltage.
    pub vg: f64,
    /// Drain node voltage.
    pub vd: f64,
    /// Source node voltage.
    pub vs: f64,
    /// Bulk (body) node voltage.
    pub vb: f64,
}

impl Bias {
    /// Creates a bias point from the four absolute node voltages.
    pub fn new(vg: f64, vd: f64, vs: f64, vb: f64) -> Self {
        Self { vg, vd, vs, vb }
    }

    /// Gate-to-source voltage.
    #[inline]
    pub fn vgs(&self) -> f64 {
        self.vg - self.vs
    }

    /// Drain-to-source voltage.
    #[inline]
    pub fn vds(&self) -> f64 {
        self.vd - self.vs
    }

    /// Gate-to-drain voltage.
    #[inline]
    pub fn vgd(&self) -> f64 {
        self.vg - self.vd
    }

    /// Source-to-bulk voltage.
    #[inline]
    pub fn vsb(&self) -> f64 {
        self.vs - self.vb
    }

    /// Drain-to-bulk voltage.
    #[inline]
    pub fn vdb(&self) -> f64 {
        self.vd - self.vb
    }

    /// All four voltages negated — the p-channel polarity transform.
    #[must_use]
    pub fn negated(&self) -> Self {
        Self { vg: -self.vg, vd: -self.vd, vs: -self.vs, vb: -self.vb }
    }

    /// Source and drain exchanged (the MOSFET is symmetric; the model
    /// core requires `vds >= 0`).
    #[must_use]
    pub fn swapped_ds(&self) -> Self {
        Self { vg: self.vg, vd: self.vs, vs: self.vd, vb: self.vb }
    }
}

/// Currents flowing **from each external node into the device terminal**
/// \[A\]. By construction they sum to zero (charge conservation), so the
/// device can be stamped directly into a nodal (KCL) formulation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TerminalCurrents {
    /// Into the drain terminal.
    pub d: f64,
    /// Into the gate terminal.
    pub g: f64,
    /// Into the source terminal.
    pub s: f64,
    /// Into the bulk terminal.
    pub b: f64,
}

impl TerminalCurrents {
    /// All-zero currents.
    pub const ZERO: Self = Self { d: 0.0, g: 0.0, s: 0.0, b: 0.0 };

    /// Residual of charge conservation; should be ~0 up to rounding.
    #[inline]
    pub fn kcl_residual(&self) -> f64 {
        self.d + self.g + self.s + self.b
    }

    /// All currents negated (used by the p-channel polarity transform).
    #[must_use]
    pub fn negated(&self) -> Self {
        Self { d: -self.d, g: -self.g, s: -self.s, b: -self.b }
    }

    /// Drain and source entries exchanged (undoes a source/drain swap).
    #[must_use]
    pub fn swapped_ds(&self) -> Self {
        Self { d: self.s, g: self.g, s: self.d, b: self.b }
    }
}

impl std::ops::Add for TerminalCurrents {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self { d: self.d + rhs.d, g: self.g + rhs.g, s: self.s + rhs.s, b: self.b + rhs.b }
    }
}

impl std::ops::AddAssign for TerminalCurrents {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// Magnitudes of the three leakage mechanisms of a device (or, summed,
/// of a gate / circuit) \[A\]. This is the quantity the paper plots and
/// tabulates: `I_total = I_sub + I_gate + I_btbt`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LeakageBreakdown {
    /// Subthreshold (weak-inversion drain-source) leakage.
    pub sub: f64,
    /// Gate direct-tunneling leakage (all oxide components).
    pub gate: f64,
    /// Junction band-to-band tunneling leakage.
    pub btbt: f64,
}

impl LeakageBreakdown {
    /// All-zero breakdown.
    pub const ZERO: Self = Self { sub: 0.0, gate: 0.0, btbt: 0.0 };

    /// Total leakage `sub + gate + btbt`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sub + self.gate + self.btbt
    }

    /// Component-wise scaling, e.g. for unit conversion or averaging.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        Self { sub: self.sub * k, gate: self.gate * k, btbt: self.btbt * k }
    }

    /// Each component clamped to be non-negative (a NaN component
    /// clamps to zero too): the loading-aware estimate of a gate, whose
    /// summed deltas may overshoot below zero.
    #[must_use]
    #[inline]
    pub fn clamped(&self) -> Self {
        Self { sub: self.sub.max(0.0), gate: self.gate.max(0.0), btbt: self.btbt.max(0.0) }
    }

    /// Component-wise relative difference `(self - base) / base`, with
    /// components of `base` below `floor` reported as 0 to avoid noise
    /// amplification. This is the paper's loading-effect metric (eq. 3).
    #[must_use]
    pub fn relative_to(&self, base: &Self, floor: f64) -> Self {
        let rel = |a: f64, b: f64| if b.abs() <= floor { 0.0 } else { (a - b) / b };
        Self {
            sub: rel(self.sub, base.sub),
            gate: rel(self.gate, base.gate),
            btbt: rel(self.btbt, base.btbt),
        }
    }
}

impl std::ops::Add for LeakageBreakdown {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self { sub: self.sub + rhs.sub, gate: self.gate + rhs.gate, btbt: self.btbt + rhs.btbt }
    }
}

impl std::ops::AddAssign for LeakageBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for LeakageBreakdown {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self { sub: self.sub - rhs.sub, gate: self.gate - rhs.gate, btbt: self.btbt - rhs.btbt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_differences() {
        let b = Bias::new(0.9, 0.4, 0.1, 0.0);
        assert!((b.vgs() - 0.8).abs() < 1e-15);
        assert!((b.vds() - 0.3).abs() < 1e-15);
        assert!((b.vgd() - 0.5).abs() < 1e-15);
        assert!((b.vsb() - 0.1).abs() < 1e-15);
        assert!((b.vdb() - 0.4).abs() < 1e-15);
    }

    #[test]
    fn negation_round_trips() {
        let b = Bias::new(0.9, 0.4, 0.1, 0.0);
        assert_eq!(b.negated().negated(), b);
    }

    #[test]
    fn swap_exchanges_d_and_s() {
        let b = Bias::new(0.9, 0.4, 0.1, 0.0).swapped_ds();
        assert_eq!(b.vd, 0.1);
        assert_eq!(b.vs, 0.4);
    }

    #[test]
    fn terminal_currents_add_and_negate() {
        let a = TerminalCurrents { d: 1.0, g: 2.0, s: -3.0, b: 0.0 };
        let c = a + a.negated();
        assert_eq!(c, TerminalCurrents::ZERO);
        assert_eq!(a.kcl_residual(), 0.0);
    }

    #[test]
    fn breakdown_total_and_relative() {
        let a = LeakageBreakdown { sub: 110.0, gate: 55.0, btbt: 11.0 };
        let b = LeakageBreakdown { sub: 100.0, gate: 50.0, btbt: 10.0 };
        assert!((a.total() - 176.0).abs() < 1e-12);
        let r = a.relative_to(&b, 1e-15);
        assert!((r.sub - 0.1).abs() < 1e-12);
        assert!((r.gate - 0.1).abs() < 1e-12);
        assert!((r.btbt - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_to_floors_tiny_baselines() {
        let a = LeakageBreakdown { sub: 1.0, gate: 0.0, btbt: 0.0 };
        let b = LeakageBreakdown { sub: 1e-20, gate: 1.0, btbt: 1.0 };
        let r = a.relative_to(&b, 1e-15);
        assert_eq!(r.sub, 0.0, "baseline below floor must report 0");
    }
}
