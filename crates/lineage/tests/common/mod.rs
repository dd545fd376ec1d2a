//! The random-program generator shared by the lineage differential
//! tests: programs interleave mid-stream `input` instructions with ALU
//! mixes, direct/indirect memory traffic and outputs, so input
//! identifiers are allocated across epoch boundaries and shadow rows are
//! overwritten with equal, larger and empty sets.

#![allow(dead_code)] // each test binary uses its own subset

use dift_dbi::{Engine, Tool};
use dift_isa::{BinOp, Program, ProgramBuilder, Reg};
use dift_vm::{Machine, MachineConfig, StepEffects};
use proptest::prelude::*;
use std::sync::Arc;

pub const OPS: [BinOp; 6] =
    [BinOp::Add, BinOp::Xor, BinOp::Mul, BinOp::And, BinOp::Min, BinOp::Shl];
pub const SLOT_BASE: i64 = 500;

#[derive(Clone, Debug)]
pub enum Step {
    Alu {
        op: usize,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Store {
        rs: u8,
        slot: u8,
    },
    Load {
        rd: u8,
        slot: u8,
    },
    /// Store through an address derived from a register (keeps lineage
    /// flowing through address computations).
    StoreVia {
        rs: u8,
    },
    LoadVia {
        rd: u8,
        rs: u8,
    },
    /// Mid-stream input word from channel 1: allocates a fresh input
    /// identifier wherever it lands in the epoch grid.
    Input {
        rd: u8,
    },
    /// Mid-stream output on channel 2.
    Output {
        rs: u8,
    },
}

pub fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..OPS.len(), 1u8..10, 1u8..10, 1u8..10).prop_map(|(op, rd, rs1, rs2)| Step::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (1u8..10, 0u8..8).prop_map(|(rs, slot)| Step::Store { rs, slot }),
        (1u8..10, 0u8..8).prop_map(|(rd, slot)| Step::Load { rd, slot }),
        (1u8..10).prop_map(|rs| Step::StoreVia { rs }),
        (1u8..10, 1u8..10).prop_map(|(rd, rs)| Step::LoadVia { rd, rs }),
        (1u8..10).prop_map(|rd| Step::Input { rd }),
        (1u8..10).prop_map(|rs| Step::Output { rs }),
    ]
}

pub fn build(ninputs: usize, steps: &[Step]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.func("main");
    for i in 0..ninputs {
        b.input(Reg(i as u8 + 1), 0);
    }
    b.li(Reg(11), SLOT_BASE);
    for s in steps {
        match s {
            Step::Alu { op, rd, rs1, rs2 } => {
                b.bin(OPS[*op], Reg(*rd), Reg(*rs1), Reg(*rs2));
            }
            Step::Store { rs, slot } => {
                b.store(Reg(*rs), Reg(11), *slot as i64);
            }
            Step::Load { rd, slot } => {
                b.load(Reg(*rd), Reg(11), *slot as i64);
            }
            Step::StoreVia { rs } => {
                b.bini(BinOp::And, Reg(12), Reg(*rs), 63);
                b.add(Reg(12), Reg(12), Reg(11));
                b.store(Reg(*rs), Reg(12), 0);
            }
            Step::LoadVia { rd, rs } => {
                b.bini(BinOp::And, Reg(12), Reg(*rs), 63);
                b.add(Reg(12), Reg(12), Reg(11));
                b.load(Reg(*rd), Reg(12), 0);
            }
            Step::Input { rd } => {
                b.input(Reg(*rd), 1);
            }
            Step::Output { rs } => {
                b.output(Reg(*rs), 2);
            }
        }
    }
    for i in 1..10u8 {
        b.output(Reg(i), 3);
    }
    b.halt();
    Arc::new(b.build().unwrap())
}

#[derive(Default)]
struct Capture {
    fxs: Vec<StepEffects>,
}

impl Tool for Capture {
    fn after(&mut self, _m: &mut Machine, fx: &StepEffects) {
        self.fxs.push(fx.clone());
    }
}

/// A machine for `p` with its input channels fed: `inputs` on channel
/// 0, one distinct word per `Step::Input` on channel 1.
pub fn machine(p: &Arc<Program>, inputs: &[u64], steps: &[Step]) -> Machine {
    let mut m = Machine::new(p.clone(), MachineConfig::small());
    m.feed_input(0, inputs);
    let ch1: Vec<u64> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Step::Input { .. }))
        .map(|(i, _)| 1000 + i as u64)
        .collect();
    m.feed_input(1, &ch1);
    m
}

pub fn capture(p: &Arc<Program>, inputs: &[u64], steps: &[Step]) -> Vec<StepEffects> {
    let mut cap = Capture::default();
    let r = Engine::new(machine(p, inputs, steps)).run_tool(&mut cap);
    assert!(r.status.is_clean(), "{:?}", r.status);
    cap.fxs
}
