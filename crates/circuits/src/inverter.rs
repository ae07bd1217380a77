//! Combinational GF(2⁸) inverters.
//!
//! The masked S-box inverts one multiplicative share *locally* — i.e.
//! with a plain, unmasked inverter ("local inversion" in Fig. 2, after
//! the logic-minimization approach of Boyar–Matthews–Peralta). Two
//! generators are provided:
//!
//! * [`inverter_pow254`] — the addition-chain x²⁵⁴ design (4 Mastrovito
//!   multipliers + linear squarings). Simple, obviously correct.
//! * [`inverter_tower`] — the compact composite-field design
//!   GF(((2²)²)²): basis change in, nibble inversion cascade, basis
//!   change out. Much smaller — the area shape hardware designs rely on.
//!
//! Both are verified exhaustively against the field inverse; their area
//! difference is pinned by `tests::tower_inverter_is_much_smaller`.

use mmaes_gf256::matrix::BitMatrix8;
use mmaes_gf256::tower::{self, TowerField};
use mmaes_netlist::{NetlistBuilder, WireId};

use crate::gfmul::gf256_multiplier;
use crate::linear::apply_matrix;

/// Which inverter architecture to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InverterKind {
    /// x²⁵⁴ addition chain with Mastrovito multipliers.
    Pow254,
    /// Composite-field GF(((2²)²)²) inverter (compact; default).
    #[default]
    Tower,
}

/// Generates an inverter of the selected [`InverterKind`].
///
/// # Panics
///
/// Panics unless `input` is exactly 8 wires.
pub fn inverter(builder: &mut NetlistBuilder, kind: InverterKind, input: &[WireId]) -> Vec<WireId> {
    match kind {
        InverterKind::Pow254 => inverter_pow254(builder, input),
        InverterKind::Tower => inverter_tower(builder, input),
    }
}

/// Generates the x²⁵⁴ inverter: chain `x² → x³ → x¹² → x¹⁵ → x²⁴⁰ →
/// x²⁵² → x²⁵⁴` (squarings are XOR networks, 4 multipliers total).
///
/// # Panics
///
/// Panics unless `input` is exactly 8 wires.
pub fn inverter_pow254(builder: &mut NetlistBuilder, input: &[WireId]) -> Vec<WireId> {
    assert_eq!(input.len(), 8, "inverter input must be 8 wires");
    let frobenius = BitMatrix8::frobenius();
    let square = |builder: &mut NetlistBuilder, bus: &[WireId]| -> Vec<WireId> {
        apply_matrix(builder, &frobenius, bus)
    };

    let x2 = square(builder, input);
    let x3 = gf256_multiplier(builder, &x2, input);
    let x6 = square(builder, &x3);
    let x12 = square(builder, &x6);
    let x15 = gf256_multiplier(builder, &x12, &x3);
    let mut x240 = x15;
    for _ in 0..4 {
        x240 = square(builder, &x240);
    }
    let x252 = gf256_multiplier(builder, &x240, &x12);
    gf256_multiplier(builder, &x252, &x2)
}

/// Generates the composite-field inverter.
///
/// # Panics
///
/// Panics unless `input` is exactly 8 wires.
pub fn inverter_tower(builder: &mut NetlistBuilder, input: &[WireId]) -> Vec<WireId> {
    assert_eq!(input.len(), 8, "inverter input must be 8 wires");
    let field = TowerField::new();

    // Into the tower basis.
    let in_tower = apply_matrix(builder, &field.to_tower_matrix(), input);
    let (low, high) = in_tower.split_at(4);
    let (b, a) = (low.to_vec(), high.to_vec()); // t = a·Y + b

    // Δ = λ·a² ⊕ b·(a ⊕ b)
    let a_squared = square4(builder, &a);
    let lambda_a2 = mul4_const(builder, &a_squared, field.lambda());
    let a_xor_b: Vec<WireId> = a
        .iter()
        .zip(&b)
        .map(|(&wa, &wb)| builder.xor2(wa, wb))
        .collect();
    let b_times = mul4(builder, &b, &a_xor_b);
    let delta: Vec<WireId> = lambda_a2
        .iter()
        .zip(&b_times)
        .map(|(&wa, &wb)| builder.xor2(wa, wb))
        .collect();

    // Δ⁻¹ in GF(16), then the output halves.
    let delta_inv = inv4(builder, &delta);
    let out_high = mul4(builder, &a, &delta_inv);
    let out_low = mul4(builder, &a_xor_b, &delta_inv);

    let mut out_tower = out_low;
    out_tower.extend(out_high);
    apply_matrix(builder, &field.from_tower_matrix(), &out_tower)
}

/// GF(2²) multiplier (2-bit buses).
fn mul2(builder: &mut NetlistBuilder, a: &[WireId], b: &[WireId]) -> Vec<WireId> {
    let p00 = builder.and2(a[0], b[0]);
    let p01 = builder.and2(a[0], b[1]);
    let p10 = builder.and2(a[1], b[0]);
    let p11 = builder.and2(a[1], b[1]);
    let low = builder.xor2(p00, p11);
    let high_partial = builder.xor2(p10, p01);
    let high = builder.xor2(high_partial, p11);
    vec![low, high]
}

/// GF(2²) squaring (linear): `(a1, a0) → (a1, a0 ⊕ a1)`.
fn square2(builder: &mut NetlistBuilder, a: &[WireId]) -> Vec<WireId> {
    let low = builder.xor2(a[0], a[1]);
    vec![low, a[1]]
}

/// Multiplication by φ = W+1 in GF(2²) (linear): `(a1, a0) → (a0, a0 ⊕ a1)`.
fn mul2_phi(builder: &mut NetlistBuilder, a: &[WireId]) -> Vec<WireId> {
    let low = builder.xor2(a[0], a[1]);
    vec![low, a[0]]
}

/// GF(2⁴) multiplier (4-bit buses, low 2 bits = GF(2²) constant term).
fn mul4(builder: &mut NetlistBuilder, a: &[WireId], b: &[WireId]) -> Vec<WireId> {
    let (a0, a1) = (&a[..2], &a[2..]);
    let (b0, b1) = (&b[..2], &b[2..]);
    let a0b0 = mul2(builder, a0, b0);
    let a1b0 = mul2(builder, a1, b0);
    let a0b1 = mul2(builder, a0, b1);
    let a1b1 = mul2(builder, a1, b1);
    let phi_hh = mul2_phi(builder, &a1b1);
    let high: Vec<WireId> = (0..2)
        .map(|bit| {
            let cross = builder.xor2(a1b0[bit], a0b1[bit]);
            builder.xor2(cross, a1b1[bit])
        })
        .collect();
    let low: Vec<WireId> = (0..2)
        .map(|bit| builder.xor2(a0b0[bit], phi_hh[bit]))
        .collect();
    let mut out = low;
    out.extend(high);
    out
}

/// GF(2⁴) squaring (linear).
fn square4(builder: &mut NetlistBuilder, a: &[WireId]) -> Vec<WireId> {
    let (a0, a1) = (&a[..2], &a[2..]);
    let a1_squared = square2(builder, a1);
    let a0_squared = square2(builder, a0);
    let phi_part = mul2_phi(builder, &a1_squared);
    let low: Vec<WireId> = (0..2)
        .map(|bit| builder.xor2(a0_squared[bit], phi_part[bit]))
        .collect();
    let mut out = low;
    out.extend(a1_squared);
    out
}

/// GF(2⁴) multiplication by a constant (folded to a 4×4 XOR network).
fn mul4_const(builder: &mut NetlistBuilder, a: &[WireId], constant: u8) -> Vec<WireId> {
    // Column k of the linear map is mul4(e_k, constant).
    let columns: Vec<u8> = (0..4).map(|k| tower::mul4(1 << k, constant)).collect();
    (0..4)
        .map(|row| {
            let taps: Vec<WireId> = (0..4)
                .filter(|&column| (columns[column] >> row) & 1 == 1)
                .map(|column| a[column])
                .collect();
            if taps.is_empty() {
                builder.const0()
            } else if taps.len() == 1 {
                taps[0]
            } else {
                builder.xor_many(&taps)
            }
        })
        .collect()
}

/// GF(2⁴) inverter: `Δ = φ·a1² ⊕ a0(a0 ⊕ a1)`, `Δ⁻¹ = Δ²`, then the two
/// halves are `a1·Δ⁻¹` and `(a0 ⊕ a1)·Δ⁻¹`.
fn inv4(builder: &mut NetlistBuilder, a: &[WireId]) -> Vec<WireId> {
    let (a0, a1) = (&a[..2].to_vec(), &a[2..].to_vec());
    let a1_squared = square2(builder, a1);
    let phi_a1sq = mul2_phi(builder, &a1_squared);
    let a0_xor_a1: Vec<WireId> = (0..2).map(|bit| builder.xor2(a0[bit], a1[bit])).collect();
    let a0_prod = mul2(builder, a0, &a0_xor_a1);
    let delta: Vec<WireId> = (0..2)
        .map(|bit| builder.xor2(phi_a1sq[bit], a0_prod[bit]))
        .collect();
    let delta_inv = square2(builder, &delta); // inversion = squaring in GF(4)
    let high = mul2(builder, a1, &delta_inv);
    let low = mul2(builder, &a0_xor_a1, &delta_inv);
    let mut out = low;
    out.extend(high);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmaes_gf256::Gf256;
    use mmaes_netlist::{NetlistBuilder, NetlistStats, SignalRole};
    use mmaes_sim::Simulator;

    fn check_inverter(kind: InverterKind) -> NetlistStats {
        let mut builder = NetlistBuilder::new(format!("inv_{kind:?}"));
        let input = builder.input_bus("x", 8, |_| SignalRole::Control);
        let output = builder.scoped("inv", |builder| inverter(builder, kind, &input));
        builder.output_bus("y", &output);
        let netlist = builder.build().expect("valid inverter");
        assert_eq!(
            netlist.register_count(),
            0,
            "inverter must be combinational"
        );

        let mut sim = Simulator::new(&netlist);
        for base in (0..256u32).step_by(64) {
            let mut lanes = [0u64; 64];
            for (lane, value) in lanes.iter_mut().enumerate() {
                *value = (base as u64 + lane as u64) & 0xff;
            }
            sim.set_bus_per_lane(&input, &lanes);
            sim.eval();
            for lane in 0..64 {
                let x = Gf256::new((base + lane as u32) as u8);
                let hardware = sim.bus_lane(&output, lane) as u8;
                assert_eq!(hardware, x.inverse().to_byte(), "x = {x}");
            }
        }
        NetlistStats::of(&netlist)
    }

    #[test]
    fn pow254_inverter_is_correct_exhaustively() {
        check_inverter(InverterKind::Pow254);
    }

    #[test]
    fn tower_inverter_is_correct_exhaustively() {
        check_inverter(InverterKind::Tower);
    }

    #[test]
    fn tower_inverter_is_much_smaller() {
        let pow254 = check_inverter(InverterKind::Pow254);
        let tower = check_inverter(InverterKind::Tower);
        assert!(
            tower.gate_equivalents * 2.0 < pow254.gate_equivalents,
            "tower {:.0} GE vs pow254 {:.0} GE",
            tower.gate_equivalents,
            pow254.gate_equivalents
        );
    }
}
