//! The bit-sliced simulation kernel: 64 Monte-Carlo seeds per machine
//! word.
//!
//! The batched kernel ([`BatchedProgram`]) stores one `u64` per
//! *(net, lane)*, so a 4-bit datapath wastes 60 of every 64 bits. The
//! bit-sliced kernel transposes that layout: state is one `u64` per
//! *(net, bit-position)* — a **bit plane** — whose lane-`l` bit is bit
//! `j` of net `net` in seed population member `l`:
//!
//! ```text
//! batched       nets[net * lanes + lane]     (lane-major words)
//! bit-sliced    planes[net * width + bit]    (bit planes, 64 seeds/word)
//!
//!                  net 0                       net 1
//!        ┌───────┬───────┬───────┐   ┌───────┬───────┬───────┐
//!        │ bit 0 │ bit 1 │ bit 2 │   │ bit 0 │ bit 1 │ bit 2 │ …
//!        │ 64 seeds per plane    │   │ 64 seeds per plane    │
//!        └───────┴───────┴───────┘   └───────┴───────┴───────┘
//! ```
//!
//! The compiled instruction stream is **re-lowered once** into plane
//! form ([`PInstr`]): mux copies and logic ops become `width` whole-
//! population bitwise ops, `Add`/`Sub` become width-bounded branchless
//! ripple-carry/borrow chains, comparisons take the borrow-out of a
//! subtraction, and `Mul` runs a shift-add over conditional partial
//! products. Operations without a cheap boolean form (`Div`, the
//! data-dependent shifts) fall back to an explicit
//! transpose-execute-transpose per instruction, so correctness never
//! depends on op coverage.
//!
//! **Change-driven evaluation.** Compile-time pruning (see
//! [`CompiledNetlist`]) drops only the instructions that are quiet on
//! *every* pass through their step. A kept instruction still runs once
//! per period, yet its operands change only when a port is driven or a
//! register captures, and often not even then. The
//! runner therefore keeps a generation stamp per net (the tick of its
//! last committed change) and, per destination net, the tick and
//! configuration id of the instruction that last wrote it. An
//! instruction whose configuration is unchanged and whose source
//! generations are all at or before its last execution is skipped
//! outright: re-executing it would diff identical values and count
//! nothing. Skips are exact, never approximate — toggle accounting is
//! difference-based, so only a *false* skip could diverge, and the
//! generation conditions rule those out. ALU function-select toggles
//! are control-driven compile-time constants per step, so they are
//! hoisted out of the instruction stream entirely and accumulated
//! analytically.
//!
//! **Toggle accounting.** The power model needs per-*(entity, seed)*
//! toggle counts, so each committed row folds its difference planes
//! into a branchless **column sum** (a few planes of carry-save
//! counts), which then lands in the entity's carry-save **vertical
//! counter** bank — planes where plane `j` holds bit `j` of each
//! lane's count — with a single multi-bit add. Per-lane counts are
//! read back once at the end of the sweep.
//!
//! **Stimulus.** A seed population draws its stimulus through 64
//! interleaved xoshiro256** streams ([`Xoshiro256x64`]) — each stream
//! bit-identical to the scalar generator for that seed — and
//! transposes each 64-draw row straight into bit planes with an 8×8
//! bit-matrix multiply-gather. The flat per-seed buffers of the scalar
//! path are never materialised.
//!
//! **Width monomorphization.** The sweep is compiled per datapath
//! width (1–64 in powers of two, with a dynamic fallback), so the
//! per-plane loops fully unroll at the paper benchmarks' 4-bit width.
//!
//! **Tail mask.** A partial population (`seeds.len() < 64`) leaves the
//! dead lanes' stimulus planes zero and simply never extracts them:
//! lanes are bitwise-independent, so the live lanes are bit-identical
//! to a full population's.
//!
//! **Determinism contract.** Seed `k` of a bit-sliced run is
//! bit-identical to a scalar [`simulate`](crate::simulate) run with
//! seed `seeds[k]` — activity counters, per-step profiles and outputs —
//! enforced differentially by `tests/sim_bitsliced.rs` across every
//! benchmark, mode, clock count and population size. Traces are not
//! collected (as in batched mode, the scalar path covers VCD export).

use std::fmt;

use mc_dfg::Op;
use mc_prng::{Xoshiro256x64, XOSHIRO_STREAMS};
use mc_rtl::{Netlist, PowerMode};

use crate::activity::{Activity, StepActivity};
use crate::batched::BatchedProgram;
use crate::compiled::{Capture, CompiledNetlist, Instr, StepProgram};
use crate::engine::{width_mask, SimResult, StreamRun};

/// The fixed population width of the bit-sliced kernel: one seed per
/// bit of a `u64` plane.
pub const BITSLICE_LANES: usize = 64;

const _: () = assert!(BITSLICE_LANES == XOSHIRO_STREAMS);

/// Configuration-id namespace tag for live ALU instructions (low bits
/// carry the op); see [`PInstr`].
const ALU_CFG: u32 = 0x8000_0000;
/// Configuration-id namespace tag for frozen ALU instructions.
const FROZEN_CFG: u32 = 0xC000_0000;
/// "Never written by an instruction" — forces the first execution.
const NO_CFG: u32 = u32::MAX;

/// Per-net skip-check metadata, packed so one load pulls a destination
/// net's whole redundancy evidence into a single cache line: the tick of
/// its last committed change (`gen`), the tick its writing instruction
/// last executed (`seen`), and the route id of that writer (`cfg`,
/// [`NO_CFG`] until the first execution). Ticks are `u32` — the runner
/// asserts the tick clock fits before a run starts.
#[derive(Clone, Copy)]
struct NetMeta {
    gen: u32,
    seen: u32,
    cfg: u32,
}

/// A compiled op re-lowered to plane form. Everything with a cheap
/// boolean circuit gets a dedicated variant; the rest carries the
/// original [`Op`] through the transpose fallback.
#[derive(Debug, Clone, Copy)]
enum PlaneOp {
    And,
    Or,
    Xor,
    Add,
    Sub,
    Gt,
    Lt,
    Mul,
    /// Transpose-execute-transpose fallback: gather the 64 lane values,
    /// apply the scalar [`Op`], scatter the results back into planes.
    Fallback(Op),
}

impl PlaneOp {
    fn lower(op: Op) -> PlaneOp {
        match op {
            Op::And => PlaneOp::And,
            Op::Or => PlaneOp::Or,
            Op::Xor => PlaneOp::Xor,
            Op::Add => PlaneOp::Add,
            Op::Sub => PlaneOp::Sub,
            Op::Gt => PlaneOp::Gt,
            Op::Lt => PlaneOp::Lt,
            Op::Mul => PlaneOp::Mul,
            Op::Div | Op::Shl | Op::Shr => PlaneOp::Fallback(op),
        }
    }

    fn is_fallback(self) -> bool {
        matches!(self, PlaneOp::Fallback(_))
    }

    /// Plane operations this op's boolean form executes at width `w` —
    /// the deterministic cost model behind `sim.bitslice.plane_ops`
    /// (word-level bitwise ops of the lowered program, not cycles —
    /// change-driven skipping does not alter it): `2w` for logic, `6w`
    /// for the ripple chains, `3w` for borrow-out comparisons, `3w²`
    /// for shift-add multiply and `2w` for a fallback's transposes.
    fn plane_cost(self, w: u64) -> u64 {
        match self {
            PlaneOp::And | PlaneOp::Or | PlaneOp::Xor => 2 * w,
            PlaneOp::Add | PlaneOp::Sub => 6 * w,
            PlaneOp::Gt | PlaneOp::Lt => 3 * w,
            PlaneOp::Mul => 3 * w * w,
            PlaneOp::Fallback(_) => 2 * w,
        }
    }
}

/// One instruction of the re-lowered plane program — the bit-plane twin
/// of [`Instr`], with the op pre-classified and a precomputed
/// configuration id for change-driven skipping.
///
/// The configuration id identifies *what would be computed* into the
/// destination net: a copy's id is its source net, a live ALU's is
/// [`ALU_CFG`] tagged with the op, a frozen ALU's [`FROZEN_CFG`]
/// likewise. Ids from the three namespaces never collide (net indices
/// stay below the tag bits), so a destination re-targeted by a
/// different mux route, function select or freeze transition always
/// mismatches and re-executes.
#[derive(Debug, Clone, Copy)]
enum PInstr {
    Copy {
        src: u32,
        dst: u32,
    },
    Alu {
        comp: u32,
        a: u32,
        b: u32,
        dst: u32,
        kind: PlaneOp,
        cfg: u32,
    },
    AluFrozen {
        comp: u32,
        dst: u32,
        kind: PlaneOp,
        cfg: u32,
    },
}

/// One step's re-lowered instruction stream plus its analytic cost and
/// function-select totals (pulse/capture lists stay on the underlying
/// [`CompiledNetlist`] step programs).
#[derive(Debug, Default)]
struct PStep {
    instrs: Vec<PInstr>,
    /// Plane operations per execution of this step (cost model, see
    /// [`PlaneOp::plane_cost`]).
    plane_ops: u64,
    /// Fallback instructions per execution of this step.
    fallbacks: u64,
    /// Function-select toggles this step adds across all ALUs —
    /// control-driven and lane-uniform, so a compile-time constant.
    fn_step_total: u64,
}

fn lower_instrs(instrs: &[Instr], w: u64) -> PStep {
    let mut step = PStep::default();
    for instr in instrs {
        let pi = match *instr {
            Instr::Copy { src, dst } => PInstr::Copy { src, dst },
            Instr::Alu {
                comp,
                a,
                b,
                dst,
                op,
                fn_delta,
            } => {
                step.fn_step_total += fn_delta;
                PInstr::Alu {
                    comp,
                    a,
                    b,
                    dst,
                    kind: PlaneOp::lower(op),
                    cfg: ALU_CFG | op as u32,
                }
            }
            Instr::AluFrozen { comp, dst, op } => PInstr::AluFrozen {
                comp,
                dst,
                kind: PlaneOp::lower(op),
                cfg: FROZEN_CFG | op as u32,
            },
        };
        let (cost, fallback) = match pi {
            // A copy is one gather + one counted commit.
            PInstr::Copy { .. } => (2 * w, false),
            // A live ALU additionally diffs and refreshes both operand
            // history banks (4w planes).
            PInstr::Alu { kind, .. } => (kind.plane_cost(w) + 5 * w, kind.is_fallback()),
            PInstr::AluFrozen { kind, .. } => (kind.plane_cost(w) + w, kind.is_fallback()),
        };
        step.plane_ops += cost;
        step.fallbacks += u64::from(fallback);
        step.instrs.push(pi);
    }
    step
}

/// Per-component function-select toggle totals of one pass over
/// `steps` — the analytic accumulation that replaces per-execution
/// `fn_delta` adds in the hot loop.
fn fn_sums(steps: &[StepProgram], nc: usize) -> Vec<u64> {
    let mut sums = vec![0u64; nc];
    for s in steps {
        for i in &s.instrs {
            if let Instr::Alu { comp, fn_delta, .. } = *i {
                sums[comp as usize] += fn_delta;
            }
        }
    }
    sums
}

/// A compiled program re-lowered to bit-plane form: the bit-sliced
/// execution mode.
///
/// Compile once with [`BitslicedProgram::compile`], then run any number
/// of seed populations through [`BitslicedProgram::run_seeds`]. Each
/// population of up to [`BITSLICE_LANES`] seeds shares one sweep over
/// the plane program.
#[derive(Debug)]
pub struct BitslicedProgram<'a> {
    program: CompiledNetlist<'a>,
    preload: PStep,
    cold: Vec<PStep>,
    warm: Vec<PStep>,
    /// Per-component function-select toggles of the cold period.
    cold_fn: Vec<u64>,
    /// Per-component function-select toggles of one warm period.
    warm_fn: Vec<u64>,
    /// `(component, output net)` of every capturing register. A
    /// register's output net is written only by its captures, so its
    /// net toggles equal its stored-bit toggles — the runner counts
    /// them once (in the store bank) and extraction reads them back
    /// for both categories.
    cap_nets: Vec<(u32, u32)>,
    /// Per cold step: does any capture read another capture's output
    /// net (a register-to-register chain)? Only then do captures need
    /// the two-phase gather buffer.
    cold_chained: Vec<bool>,
    /// Per warm step: same chain flag.
    warm_chained: Vec<bool>,
}

/// Whether any capture of `caps` reads a net that another capture of
/// the same step writes — the shift-register hazard that forces the
/// two-phase capture commit.
fn caps_chained(caps: &[Capture]) -> bool {
    caps.iter().any(|c| caps.iter().any(|c2| c2.out == c.input))
}

impl<'a> BitslicedProgram<'a> {
    /// Lowers `netlist` under `mode` and re-lowers the instruction
    /// stream into plane form.
    #[must_use]
    pub fn compile(netlist: &'a Netlist, mode: PowerMode) -> Self {
        let program = CompiledNetlist::compile(netlist, mode);
        let w = u64::from(program.width);
        let preload = lower_instrs(&program.preload_instrs, w);
        let cold = program
            .cold
            .iter()
            .map(|s| lower_instrs(&s.instrs, w))
            .collect();
        let warm = program
            .warm
            .iter()
            .map(|s| lower_instrs(&s.instrs, w))
            .collect();
        let cold_fn = fn_sums(&program.cold, program.num_comps);
        let warm_fn = fn_sums(&program.warm, program.num_comps);
        let mut cap_nets: Vec<(u32, u32)> = Vec::new();
        for step in program.cold.iter().chain(&program.warm) {
            for cap in &step.captures {
                if !cap_nets.iter().any(|&(c, _)| c == cap.comp) {
                    cap_nets.push((cap.comp, cap.out));
                }
            }
        }
        let cold_chained = program
            .cold
            .iter()
            .map(|s| caps_chained(&s.captures))
            .collect();
        let warm_chained = program
            .warm
            .iter()
            .map(|s| caps_chained(&s.captures))
            .collect();
        BitslicedProgram {
            program,
            preload,
            cold,
            warm,
            cold_fn,
            warm_fn,
            cap_nets,
            cold_chained,
            warm_chained,
        }
    }

    /// The population width: always [`BITSLICE_LANES`].
    #[must_use]
    pub fn lanes(&self) -> usize {
        BITSLICE_LANES
    }

    /// Analytic plane-op total of one sweep (preload + cold period +
    /// `computations - 1` warm periods), mirroring the scalar kernel's
    /// analytic instruction count.
    fn plane_ops_executed(&self, computations: usize) -> u64 {
        if computations == 0 {
            return 0;
        }
        let sum = |steps: &[PStep]| -> u64 { steps.iter().map(|s| s.plane_ops).sum() };
        self.preload.plane_ops + sum(&self.cold) + sum(&self.warm) * (computations as u64 - 1)
    }

    /// Analytic fallback-instruction total of one sweep.
    fn fallbacks_executed(&self, computations: usize) -> u64 {
        if computations == 0 {
            return 0;
        }
        let sum = |steps: &[PStep]| -> u64 { steps.iter().map(|s| s.fallbacks).sum() };
        self.preload.fallbacks + sum(&self.cold) + sum(&self.warm) * (computations as u64 - 1)
    }

    /// Per-component function-select totals of a full sweep: the cold
    /// period once, then `computations - 1` warm periods.
    fn fn_totals(&self, computations: usize) -> Vec<u64> {
        if computations == 0 {
            return vec![0; self.program.num_comps];
        }
        self.cold_fn
            .iter()
            .zip(&self.warm_fn)
            .map(|(&c, &wm)| c + wm * (computations as u64 - 1))
            .collect()
    }

    /// Simulates `computations` random computations for every seed in
    /// `seeds`, in populations of up to [`BITSLICE_LANES`] seeds per
    /// sweep. `results[k]` is bit-identical to a scalar run with seed
    /// `seeds[k]`.
    #[must_use]
    pub fn run_seeds(
        &self,
        computations: usize,
        seeds: &[u64],
        collect_profile: bool,
    ) -> Vec<SimResult> {
        seeds
            .chunks(BITSLICE_LANES)
            .flat_map(|chunk| {
                let stim = self.stim_planes(computations, chunk);
                self.run_stim(computations, &stim, chunk.len(), collect_profile, true)
            })
            .map(|r| r.into_sim_result(self.program.netlist))
            .collect()
    }

    /// Like [`BitslicedProgram::run_seeds`] but skips output collection
    /// and returns only each seed's [`Activity`] — the form Monte-Carlo
    /// power estimation consumes.
    #[must_use]
    pub fn run_seeds_activity(
        &self,
        computations: usize,
        seeds: &[u64],
        collect_profile: bool,
    ) -> Vec<Activity> {
        seeds
            .chunks(BITSLICE_LANES)
            .flat_map(|chunk| {
                let stim = self.stim_planes(computations, chunk);
                self.run_stim(computations, &stim, chunk.len(), collect_profile, false)
            })
            .map(|r| r.activity)
            .collect()
    }

    /// Runs explicit input streams, [`BITSLICE_LANES`] per sweep; see
    /// [`SeedKernel::run_streams`].
    pub(crate) fn run_streams(&self, computations: usize, streams: &[Vec<u64>]) -> Vec<StreamRun> {
        streams
            .chunks(BITSLICE_LANES)
            .flat_map(|chunk| {
                let stim = self.flats_to_stim(computations, chunk);
                self.run_stim(computations, &stim, chunk.len(), false, true)
            })
            .collect()
    }

    /// Draws one population's stimulus directly into plane form:
    /// `stim[(c*ni + i)*w + j]` is the plane of bit `j` of input `i` at
    /// computation `c`. Stream `l` is bit-identical to the scalar
    /// generator seeded with `chunk[l]`, drawn through 64 interleaved
    /// xoshiro streams and transposed with an 8×8 bit-matrix
    /// multiply-gather — the per-seed flat buffers of the scalar path
    /// never exist. Dead lanes (`chunk.len() < 64`) stay zero: the tail
    /// mask.
    fn stim_planes(&self, computations: usize, chunk: &[u64]) -> Vec<u64> {
        let p = &self.program;
        let w = p.width as usize;
        let ni = p.input_nets.len();
        let live = chunk.len();
        debug_assert!((1..=BITSLICE_LANES).contains(&live));
        let mask = width_mask(p.width);
        let mut seeds = [0u64; XOSHIRO_STREAMS];
        seeds[..live].copy_from_slice(chunk);
        let mut rng = Xoshiro256x64::seed_from_u64s(&seeds);
        let mut draws = [0u64; XOSHIRO_STREAMS];
        let mut stim = vec![0u64; computations * ni * w];
        if w <= 8 {
            // Multiply-gather transpose: per 8-lane byte group, bit `j`
            // of each byte is gathered into one output byte by the
            // classic `(x & 0x0101…) * 0x0102_0408_1020_4080 >> 56`
            // bit-matrix trick (all partial products land on distinct
            // bit positions, so no carries interfere).
            let mut bytes = [0u8; BITSLICE_LANES];
            for k in 0..computations * ni {
                rng.next_u64s(&mut draws);
                // Fixed 64-wide pack (vectorizes as mask-and-truncate);
                // dead lanes are re-zeroed to keep the tail mask.
                for (byte, &dv) in bytes.iter_mut().zip(&draws) {
                    *byte = (dv & mask) as u8;
                }
                if live < BITSLICE_LANES {
                    bytes[live..].fill(0);
                }
                let base = k * w;
                for (g, group) in bytes.chunks_exact(8).enumerate() {
                    let word = u64::from_le_bytes(group.try_into().expect("8-byte group"));
                    if word == 0 {
                        continue;
                    }
                    for (j, plane) in stim[base..base + w].iter_mut().enumerate() {
                        let bits = ((word >> j) & 0x0101_0101_0101_0101)
                            .wrapping_mul(0x0102_0408_1020_4080)
                            >> 56;
                        *plane |= bits << (8 * g);
                    }
                }
            }
        } else {
            for k in 0..computations * ni {
                rng.next_u64s(&mut draws);
                let base = k * w;
                for (l, &dv) in draws[..live].iter().enumerate() {
                    let v = dv & mask;
                    for (j, plane) in stim[base..base + w].iter_mut().enumerate() {
                        *plane |= ((v >> j) & 1) << l;
                    }
                }
            }
        }
        stim
    }

    /// Transposes explicit flat stimulus streams (one per member) into
    /// the same plane layout as [`BitslicedProgram::stim_planes`]. Only
    /// bits below the datapath width reach a plane, so the streams are
    /// masked structurally.
    fn flats_to_stim(&self, computations: usize, flats: &[Vec<u64>]) -> Vec<u64> {
        let w = self.program.width as usize;
        let ni = self.program.input_nets.len();
        debug_assert!((1..=BITSLICE_LANES).contains(&flats.len()));
        let mut stim = vec![0u64; computations * ni * w];
        for (l, flat) in flats.iter().enumerate() {
            for (k, &v) in flat.iter().enumerate() {
                let base = k * w;
                for (j, plane) in stim[base..base + w].iter_mut().enumerate() {
                    *plane |= ((v >> j) & 1) << l;
                }
            }
        }
        stim
    }

    /// Runs one population over pre-transposed stimulus planes,
    /// dispatching to a width-monomorphized sweep so the per-plane
    /// loops unroll (`0` is the dynamic-width fallback).
    fn run_stim(
        &self,
        computations: usize,
        stim: &[u64],
        live: usize,
        collect_profile: bool,
        collect_outputs: bool,
    ) -> Vec<StreamRun> {
        macro_rules! dispatch {
            ($($w:literal),*) => {
                match self.program.width {
                    $($w => self.run_stim_impl::<$w>(
                        computations, stim, live, collect_profile, collect_outputs,
                    ),)*
                    _ => self.run_stim_impl::<0>(
                        computations, stim, live, collect_profile, collect_outputs,
                    ),
                }
            };
        }
        dispatch!(1, 2, 4, 8, 16, 32, 64)
    }

    fn run_stim_impl<const W: usize>(
        &self,
        computations: usize,
        stim: &[u64],
        live: usize,
        collect_profile: bool,
        collect_outputs: bool,
    ) -> Vec<StreamRun> {
        let p = &self.program;
        let nl = p.netlist;
        debug_assert!((1..=BITSLICE_LANES).contains(&live));
        let w = if W == 0 { p.width as usize } else { W };
        debug_assert_eq!(w, p.width as usize);
        let ni = p.input_nets.len();
        let n_nets = nl.num_nets();
        let nc = p.num_comps;

        // The write-order clock advances twice per controller step; a
        // `u32` clock keeps the packed per-net metadata to one cache
        // line for several nets. Guard the (absurdly distant) overflow
        // loudly rather than let skip evidence silently wrap.
        assert!(
            computations as u64 * u64::from(p.period) * 2 < u64::from(u32::MAX),
            "bit-sliced run exceeds the u32 tick clock"
        );
        let mut st = Runner::new(p, collect_profile);

        let mut per_step: Option<Vec<Vec<StepActivity>>> = if collect_profile {
            Some(vec![Vec::new(); live])
        } else {
            None
        };
        let mut prev = vec![StepActivity::default(); live];
        let rows = if collect_outputs {
            computations * nl.outputs().len()
        } else {
            0
        };
        let mut outputs: Vec<Vec<u64>> = vec![Vec::with_capacity(rows); live];
        let mut lane_vals = [0u64; BITSLICE_LANES];

        // Reset preload (silent: no activity counted, no generation
        // stamps — every instruction's first counted execution is
        // forced by its `NO_CFG` destination).
        if computations > 0 {
            for (i, &net) in p.input_nets.iter().enumerate() {
                let base = net as usize * w;
                st.planes[base..base + w].copy_from_slice(&stim[i * w..(i + 1) * w]);
            }
            for pi in &self.preload.instrs {
                st.exec_silent::<W>(pi);
            }
            for cap in &p.preload_captures {
                let s = cap.input as usize * w;
                let d = cap.comp as usize * w;
                st.stored[d..d + w].copy_from_slice(&st.planes[s..s + w]);
                st.planes.copy_within(s..s + w, cap.out as usize * w);
            }
        }

        for c in 0..computations {
            let (programs, psteps, chained) = if c == 0 {
                (&p.cold, &self.cold, &self.cold_chained)
            } else {
                (&p.warm, &self.warm, &self.warm_chained)
            };
            for t in 1..=p.period {
                let program = &programs[(t - 1) as usize];
                let pstep = &psteps[(t - 1) as usize];
                // Combinational phase: drives and instructions share
                // one tick; captures commit on the next, so a skip
                // decision always sees a strict global write order.
                st.tick += 1;
                // 1. Drive ports at the boundary step (counted).
                if t == p.period && c + 1 < computations {
                    let base = ((c + 1) * ni) * w;
                    for (i, &net) in p.input_nets.iter().enumerate() {
                        st.commit_row::<W>(net, &stim[base + i * w..base + (i + 1) * w]);
                    }
                }
                // 2. Effective controls and function selects:
                // precomputed, lane-independent.
                st.control_toggles += program.control_toggles;
                st.fn_total += pstep.fn_step_total;
                // 3. Combinational evaluation, change-driven.
                for pi in &pstep.instrs {
                    st.exec::<W>(pi);
                }
                // 4. Clock edges (lane-independent) and captures
                // (two-phase commit through the reusable buffer).
                st.tick += 1;
                st.clock_total += program.pulses.len() as u64;
                st.captures::<W>(&program.captures, chained[(t - 1) as usize]);
                st.controller_pulses += 1;
                st.steps += 1;
                if let Some(ps) = per_step.as_mut() {
                    for (l, (lane_steps, prev)) in ps.iter_mut().zip(&mut prev).enumerate() {
                        let now = st.running_profile(l);
                        lane_steps.push(StepActivity {
                            net_toggles: now.net_toggles - prev.net_toggles,
                            input_toggles: now.input_toggles - prev.input_toggles,
                            clock_pulses: now.clock_pulses - prev.clock_pulses,
                            store_toggles: now.store_toggles - prev.store_toggles,
                            control_toggles: now.control_toggles - prev.control_toggles,
                        });
                        *prev = now;
                    }
                }
            }
            if collect_outputs {
                for (_, net) in nl.outputs() {
                    gather_lanes(
                        &st.planes[net.index() * w..(net.index() + 1) * w],
                        &mut lane_vals,
                    );
                    for (lane_outputs, &v) in outputs.iter_mut().zip(&lane_vals) {
                        lane_outputs.push(v);
                    }
                }
            }
        }

        // Extract the live lanes: the vertical counters hand back each
        // seed's exact per-entity counts; function-select toggles come
        // from the analytic per-component totals; lane-independent
        // counters replicate verbatim. Dead lanes are never read —
        // that is the whole tail mask.
        let fn_comp = self.fn_totals(computations);
        let clock_pulses = p.clock_pulses(computations);
        let results: Vec<StreamRun> = outputs
            .into_iter()
            .enumerate()
            .map(|(l, lane_outputs)| {
                let mut activity = Activity::new(n_nets, nc);
                activity.steps = st.steps;
                activity.computations = computations as u64;
                for (net, tog) in activity.net_toggles.iter_mut().enumerate() {
                    *tog = st.net_count.get(net, l);
                }
                for &(comp, out) in &self.cap_nets {
                    activity.net_toggles[out as usize] = st.store_count.get(comp as usize, l);
                }
                for (i, &fnc) in fn_comp.iter().enumerate().take(nc) {
                    activity.input_toggles[i] = st.input_count.get(i, l) + fnc;
                    activity.store_toggles[i] = st.store_count.get(i, l);
                }
                activity.clock_pulses.clone_from(&clock_pulses);
                activity.control_toggles = st.control_toggles;
                activity.controller_pulses = st.controller_pulses;
                if let Some(ps) = per_step.as_mut() {
                    activity.per_step = Some(std::mem::take(&mut ps[l]));
                }
                StreamRun {
                    activity,
                    outputs: lane_outputs,
                }
            })
            .collect();

        if mc_trace::enabled() {
            mc_trace::count("sim.runs", live as u64);
            mc_trace::count(
                "sim.instructions",
                p.instructions_executed(computations) * live as u64,
            );
            mc_trace::count("sim.bitslice.planes", (n_nets * w) as u64);
            mc_trace::count(
                "sim.bitslice.plane_ops",
                self.plane_ops_executed(computations),
            );
            mc_trace::count(
                "sim.bitslice.popcounts",
                st.net_count.folds + st.input_count.folds + st.store_count.folds,
            );
            mc_trace::count(
                "sim.bitslice.fallback_transposes",
                3 * self.fallbacks_executed(computations),
            );
            for r in &results {
                let a = &r.activity;
                mc_trace::count("sim.steps", a.steps);
                mc_trace::count(
                    "sim.toggles",
                    a.net_toggles.iter().sum::<u64>()
                        + a.input_toggles.iter().sum::<u64>()
                        + a.store_toggles.iter().sum::<u64>()
                        + a.control_toggles,
                );
                mc_trace::count("sim.clock_pulses", a.total_clock_pulses());
            }
        }

        results
    }
}

/// Column-sum levels needed for up to `max_pushes` difference planes:
/// the bit width of `max_pushes` itself, so the top level never carries
/// out.
#[inline(always)]
const fn levels_for(max_pushes: usize) -> usize {
    (usize::BITS - max_pushes.leading_zeros()) as usize
}

/// Pushes one difference plane into a branchless carry-save column sum:
/// `sum[s]` holds bit `s` of each lane's running count. The ripple is
/// unconditional so it unrolls cleanly for constant `levels`.
#[inline(always)]
fn csum_push(sum: &mut [u64; 8], levels: usize, d: u64) {
    let mut c = d;
    for s in sum.iter_mut().take(levels) {
        let nc = *s & c;
        *s ^= c;
        c = nc;
    }
}

/// Bitwise full adder: `(sum, carry)` of three planes.
#[inline(always)]
fn fa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let s = a ^ b;
    (s ^ c, (a & b) | (c & s))
}

/// Folds a whole batch of difference planes into a column sum at once.
/// The power-of-two batch sizes get a carry-save adder tree (11 plane
/// ops for four diffs, 34 for eight — versus ~`3·levels` per diff for
/// the serial [`csum_push`] ripple); odd sizes fall back to the ripple.
#[inline(always)]
fn fold_sum(levels: usize, diffs: &[u64], sum: &mut [u64; 8]) {
    match diffs.len() {
        1 => sum[0] = diffs[0],
        2 => {
            sum[0] = diffs[0] ^ diffs[1];
            sum[1] = diffs[0] & diffs[1];
        }
        4 => {
            let (s0, c0) = (diffs[0] ^ diffs[1], diffs[0] & diffs[1]);
            let (s1, c1) = (diffs[2] ^ diffs[3], diffs[2] & diffs[3]);
            sum[0] = s0 ^ s1;
            let (l1, l2) = fa(c0, c1, s0 & s1);
            sum[1] = l1;
            sum[2] = l2;
        }
        8 => {
            let mut lo = [0u64; 8];
            let mut hi = [0u64; 8];
            fold_sum(3, &diffs[..4], &mut lo);
            fold_sum(3, &diffs[4..], &mut hi);
            sum[0] = lo[0] ^ hi[0];
            let (l1, c1) = fa(lo[1], hi[1], lo[0] & hi[0]);
            let (l2, l3) = fa(lo[2], hi[2], c1);
            sum[1] = l1;
            sum[2] = l2;
            sum[3] = l3;
        }
        _ => {
            for &d in diffs {
                csum_push(sum, levels, d);
            }
        }
    }
}

/// Any-lane-changed plane of a column sum: a lane's count is nonzero
/// iff one of its sum bits is.
#[inline(always)]
fn or_levels(sum: &[u64]) -> u64 {
    sum.iter().fold(0, |acc, &s| acc | s)
}

/// Writes `vals` over `row`, folding the difference planes into `sum`;
/// returns the any-lane-changed plane. The shared core of every counted
/// commit.
#[inline(always)]
fn diff_rows(w: usize, levels: usize, row: &mut [u64], vals: &[u64], sum: &mut [u64; 8]) -> u64 {
    if w <= 8 {
        let mut diffs = [0u64; 8];
        for ((slot, &v), d) in row.iter_mut().zip(vals).zip(&mut diffs) {
            *d = *slot ^ v;
            *slot = v;
        }
        fold_sum(levels, &diffs[..w], sum);
    } else {
        for (slot, &v) in row.iter_mut().zip(vals) {
            let d = *slot ^ v;
            *slot = v;
            csum_push(sum, levels, d);
        }
    }
    or_levels(&sum[..levels])
}

/// Disjoint source/destination plane rows of one backing vector (a
/// plane-to-plane copy never self-targets).
#[inline(always)]
fn two_rows(planes: &mut [u64], src: usize, dst: usize, w: usize) -> (&[u64], &mut [u64]) {
    debug_assert!(src.abs_diff(dst) >= w, "rows overlap");
    if src < dst {
        let (lo, hi) = planes.split_at_mut(dst);
        (&lo[src..src + w], &mut hi[..w])
    } else {
        let (lo, hi) = planes.split_at_mut(src);
        (&hi[..w], &mut lo[dst..dst + w])
    }
}

/// Carry-save vertical counters: per entity, a bank of planes where
/// plane `j`'s lane-`l` bit is bit `j` of lane `l`'s count. Events
/// arrive as whole column sums ([`fold_sum`] batches) and land with a
/// single multi-bit carry-save add.
///
/// The bank is one growable tier per entity: `depth` contiguous planes
/// holding count bits `0..depth`. An add ripples the incoming sum planes
/// through the row and then chases the carry with an early exit — the
/// carry mask empties within a plane or two of the sum's top bit for
/// all but a vanishing fraction of adds, so the expected work per add is
/// `sum.len() + ~1` planes, all in one cache row. A carry out of the
/// whole row doubles the depth (rare enough to amortize to nothing).
#[derive(Debug)]
struct VerticalCounters {
    /// `entities × depth` planes; plane `k` of an entity is count bit `k`.
    planes: Vec<u64>,
    depth: usize,
    entities: usize,
    /// Column sums folded in (the `sim.bitslice.popcounts` counter:
    /// each fold deposits one batch of per-lane toggle counts).
    folds: u64,
}

impl VerticalCounters {
    /// Initial per-entity depth: counts to 65535 per (entity, lane)
    /// before the first growth, which covers typical Monte-Carlo sweeps
    /// outright, and every column sum the kernels fold (widths up to 64
    /// bits diff to at most 8 sum planes) lands without a width check.
    const INITIAL_DEPTH: usize = 16;

    fn new(entities: usize) -> Self {
        VerticalCounters {
            planes: vec![0; entities * Self::INITIAL_DEPTH],
            depth: Self::INITIAL_DEPTH,
            entities,
            folds: 0,
        }
    }

    /// Adds a column sum (per-lane counts, `sum[k]` = count bit `k`)
    /// into `entity`'s counters: a schoolbook carry-save add over the
    /// sum planes, then a carry chase that exits as soon as no lane
    /// still carries.
    #[inline]
    fn add_sum(&mut self, entity: usize, sum: &[u64]) {
        self.folds += 1;
        debug_assert!(sum.len() <= self.depth);
        let base = entity * self.depth;
        let row = &mut self.planes[base..base + self.depth];
        let (head, tail) = row.split_at_mut(sum.len());
        let mut carry = 0u64;
        for (plane, &s) in head.iter_mut().zip(sum) {
            let c = *plane;
            let t = c ^ s;
            *plane = t ^ carry;
            carry = (c & s) | (carry & t);
        }
        for plane in tail {
            if carry == 0 {
                return;
            }
            let prev = *plane;
            *plane = prev ^ carry;
            carry &= prev;
        }
        if carry != 0 {
            self.overflow(entity, carry);
        }
    }

    /// Doubles the depth and deposits a carry that rippled off the end
    /// of an entity's row. Past count bit 64 a lane's count would wrap
    /// `u64` — unreachable in practice — and the carry is dropped,
    /// matching the scalar kernel's release-mode wrap.
    #[cold]
    fn overflow(&mut self, entity: usize, carry: u64) {
        if self.depth >= u64::BITS as usize {
            return;
        }
        let old = self.depth;
        let depth = old * 2;
        let mut planes = vec![0u64; self.entities * depth];
        for e in 0..self.entities {
            planes[e * depth..e * depth + old]
                .copy_from_slice(&self.planes[e * old..(e + 1) * old]);
        }
        self.planes = planes;
        self.depth = depth;
        self.planes[entity * depth + old] = carry;
    }

    /// Lane `l`'s count for `entity`, folded from its row's planes.
    #[inline]
    fn get(&self, entity: usize, lane: usize) -> u64 {
        let base = entity * self.depth;
        self.planes[base..base + self.depth]
            .iter()
            .enumerate()
            .fold(0u64, |acc, (j, &plane)| acc | (((plane >> lane) & 1) << j))
    }
}

/// Step-scoped totals backing per-step profiles: one single-entity
/// vertical counter per data-dependent category. Only allocated when
/// profiling, so the activity-only hot path never pays for them.
#[derive(Debug)]
struct Totals {
    net: VerticalCounters,
    input: VerticalCounters,
    store: VerticalCounters,
}

/// Mutable plane-execution state of one population sweep.
struct Runner {
    w: usize,
    width: u8,
    planes: Vec<u64>,
    stored: Vec<u64>,
    hist_a: Vec<u64>,
    hist_b: Vec<u64>,
    /// Per-net packed skip-check metadata (change generation, last
    /// execution, route id).
    meta: Vec<NetMeta>,
    /// Tick at which each ALU's operand history last changed — the
    /// frozen-ALU skip condition.
    hist_gen: Vec<u32>,
    /// Tick of each register's last executed capture (0 = never).
    cseen: Vec<u32>,
    /// Input net of each register's last executed capture (`u32::MAX`
    /// = never) — a capture routed from a different net must not reuse
    /// the previous capture's skip evidence.
    cap_in: Vec<u32>,
    /// Global write-order clock: one tick per combinational phase, one
    /// per capture phase.
    tick: u32,
    net_count: VerticalCounters,
    input_count: VerticalCounters,
    store_count: VerticalCounters,
    /// Running function-select total across all ALUs (profile input
    /// category), advanced per step from the lowered constants.
    fn_total: u64,
    // Lane-independent counters, kept once and replicated (per-element
    // clock pulses are analytic, see `CompiledNetlist::clock_pulses`).
    clock_total: u64,
    control_toggles: u64,
    controller_pulses: u64,
    steps: u64,
    totals: Option<Totals>,
    capture_buf: Vec<u64>,
    /// Reusable ALU result row. Every [`compute_planes`] arm fully
    /// overwrites its `w` planes, so the buffer carries no state
    /// between executions — it only spares the hot loop a fresh
    /// zeroed stack array per execution.
    scratch: Vec<u64>,
}

impl Runner {
    fn new(p: &CompiledNetlist<'_>, collect_profile: bool) -> Self {
        let w = p.width as usize;
        let n_nets = p.netlist.num_nets();
        let nc = p.num_comps;
        let mut planes = vec![0u64; n_nets * w];
        // Broadcast the power-up values: every lane starts identically,
        // so an init bit becomes an all-ones plane.
        for (net, &v) in p.init_nets.iter().enumerate() {
            for (j, plane) in planes[net * w..(net + 1) * w].iter_mut().enumerate() {
                if (v >> j) & 1 == 1 {
                    *plane = u64::MAX;
                }
            }
        }
        Runner {
            w,
            width: p.width,
            planes,
            stored: vec![0; nc * w],
            hist_a: vec![0; nc * w],
            hist_b: vec![0; nc * w],
            meta: vec![
                NetMeta {
                    gen: 0,
                    seen: 0,
                    cfg: NO_CFG,
                };
                n_nets
            ],
            hist_gen: vec![0; nc],
            cseen: vec![0; nc],
            cap_in: vec![u32::MAX; nc],
            tick: 0,
            net_count: VerticalCounters::new(n_nets),
            input_count: VerticalCounters::new(nc),
            store_count: VerticalCounters::new(nc),
            fn_total: 0,
            clock_total: 0,
            control_toggles: 0,
            controller_pulses: 0,
            steps: 0,
            totals: collect_profile.then(|| Totals {
                net: VerticalCounters::new(1),
                input: VerticalCounters::new(1),
                store: VerticalCounters::new(1),
            }),
            capture_buf: vec![0; p.max_captures * w],
            scratch: vec![0; w],
        }
    }

    /// Commits a result row to net `dst`'s planes: diffs every plane
    /// branchlessly into a column sum, folds a nonzero sum into the
    /// toggle counters with one add, and stamps the net's generation —
    /// the plane twin of the scalar kernel's `set_net` (planes are
    /// width-bounded, so masking is structural).
    #[inline]
    fn commit_row<const W: usize>(&mut self, dst: u32, vals: &[u64]) {
        let w = if W == 0 { self.w } else { W };
        let levels = levels_for(w);
        let base = dst as usize * w;
        let mut sum = [0u64; 8];
        let changed = diff_rows(w, levels, &mut self.planes[base..base + w], vals, &mut sum);
        if changed != 0 {
            self.net_count.add_sum(dst as usize, &sum[..levels]);
            if let Some(t) = &mut self.totals {
                t.net.add_sum(0, &sum[..levels]);
            }
            self.meta[dst as usize].gen = self.tick;
        }
    }

    /// Executes one counted plane instruction — or proves it redundant
    /// and skips it. The skip conditions are exact: configuration
    /// unchanged and every input generation at or before this
    /// destination's last execution (with the destination itself
    /// untouched since) means a re-execution would recompute the same
    /// value, diff all-zero planes and count nothing.
    #[inline]
    fn exec<const W: usize>(&mut self, pi: &PInstr) {
        let w = if W == 0 { self.w } else { W };
        match *pi {
            PInstr::Copy { src, dst } => {
                let (s, d) = (src as usize, dst as usize);
                let m = self.meta[d];
                if m.cfg == src && self.meta[s].gen <= m.seen && m.gen <= m.seen {
                    return;
                }
                let levels = levels_for(w);
                let mut sum = [0u64; 8];
                let (srow, drow) = two_rows(&mut self.planes, s * w, d * w, w);
                let changed = diff_rows(w, levels, drow, srow, &mut sum);
                if changed != 0 {
                    self.net_count.add_sum(d, &sum[..levels]);
                    if let Some(t) = &mut self.totals {
                        t.net.add_sum(0, &sum[..levels]);
                    }
                    self.meta[d].gen = self.tick;
                }
                self.meta[d].seen = self.tick;
                self.meta[d].cfg = src;
            }
            PInstr::Alu {
                comp,
                a,
                b,
                dst,
                kind,
                cfg,
            } => {
                let d = dst as usize;
                let (ai, bi) = (a as usize, b as usize);
                let m = self.meta[d];
                if m.cfg == cfg
                    && self.meta[ai].gen <= m.seen
                    && self.meta[bi].gen <= m.seen
                    && m.gen <= m.seen
                {
                    return;
                }
                let slot = comp as usize;
                let hb = slot * w;
                // Refresh both operand histories in place, folding
                // their diffs into one shared column sum — after the
                // refresh the history banks *are* the current
                // operands, so the compute reads them directly (no
                // scratch copies, no aliasing with the commit).
                let levels = levels_for(2 * w);
                let mut sum = [0u64; 8];
                if 2 * w <= 8 {
                    let mut diffs = [0u64; 8];
                    for j in 0..w {
                        let va = self.planes[ai * w + j];
                        let da = self.hist_a[hb + j] ^ va;
                        self.hist_a[hb + j] = va;
                        diffs[2 * j] = da;
                        let vb = self.planes[bi * w + j];
                        let db = self.hist_b[hb + j] ^ vb;
                        self.hist_b[hb + j] = vb;
                        diffs[2 * j + 1] = db;
                    }
                    fold_sum(levels, &diffs[..2 * w], &mut sum);
                } else {
                    for j in 0..w {
                        let va = self.planes[ai * w + j];
                        let da = self.hist_a[hb + j] ^ va;
                        self.hist_a[hb + j] = va;
                        csum_push(&mut sum, levels, da);
                        let vb = self.planes[bi * w + j];
                        let db = self.hist_b[hb + j] ^ vb;
                        self.hist_b[hb + j] = vb;
                        csum_push(&mut sum, levels, db);
                    }
                }
                let hchanged = or_levels(&sum[..levels]);
                if hchanged != 0 {
                    self.input_count.add_sum(slot, &sum[..levels]);
                    if let Some(t) = &mut self.totals {
                        t.input.add_sum(0, &sum[..levels]);
                    }
                    self.hist_gen[slot] = self.tick;
                }
                let mut out = std::mem::take(&mut self.scratch);
                compute_planes::<W>(
                    self.width,
                    kind,
                    &self.hist_a[hb..hb + w],
                    &self.hist_b[hb..hb + w],
                    &mut out,
                );
                self.commit_row::<W>(dst, &out);
                self.scratch = out;
                let m = &mut self.meta[d];
                m.seen = self.tick;
                m.cfg = cfg;
            }
            PInstr::AluFrozen {
                comp,
                dst,
                kind,
                cfg,
            } => {
                let d = dst as usize;
                let slot = comp as usize;
                let m = self.meta[d];
                if m.cfg == cfg && self.hist_gen[slot] <= m.seen && m.gen <= m.seen {
                    return;
                }
                let hb = slot * w;
                let mut out = std::mem::take(&mut self.scratch);
                compute_planes::<W>(
                    self.width,
                    kind,
                    &self.hist_a[hb..hb + w],
                    &self.hist_b[hb..hb + w],
                    &mut out,
                );
                self.commit_row::<W>(dst, &out);
                self.scratch = out;
                let m = &mut self.meta[d];
                m.seen = self.tick;
                m.cfg = cfg;
            }
        }
    }

    /// Executes one silent preload instruction: same dataflow, no
    /// activity counting, no history refresh, no generation stamps —
    /// exactly the scalar kernel's reset settle.
    fn exec_silent<const W: usize>(&mut self, pi: &PInstr) {
        let w = if W == 0 { self.w } else { W };
        match *pi {
            PInstr::Copy { src, dst } => {
                let s = src as usize * w;
                self.planes.copy_within(s..s + w, dst as usize * w);
            }
            PInstr::Alu {
                a, b, dst, kind, ..
            } => {
                let mut out = std::mem::take(&mut self.scratch);
                compute_planes::<W>(
                    self.width,
                    kind,
                    &self.planes[a as usize * w..a as usize * w + w],
                    &self.planes[b as usize * w..b as usize * w + w],
                    &mut out,
                );
                let d = dst as usize * w;
                self.planes[d..d + w].copy_from_slice(&out);
                self.scratch = out;
            }
            PInstr::AluFrozen { .. } => {
                unreachable!("preload settle has no frozen ALUs")
            }
        }
    }

    /// Memory captures: fold stored-bit toggles and commit the
    /// forwarded nets (at the capture-phase tick, so downstream skip
    /// decisions observe the register update).
    ///
    /// A register's output net is written by captures alone, so its
    /// planes always mirror the stored state — one difference pass
    /// serves both the stored-bit and the net toggle counters, and the
    /// toggles land once, in the store bank (extraction replays them
    /// onto the output net). Only a step whose captures chain — some
    /// register reading another's output — needs the two-phase gather
    /// buffer (`chained`); everywhere else captures read the input
    /// planes directly.
    fn captures<const W: usize>(&mut self, caps: &[Capture], chained: bool) {
        if caps.is_empty() {
            return;
        }
        let w = if W == 0 { self.w } else { W };
        if chained {
            for (k, cap) in caps.iter().enumerate() {
                let s = cap.input as usize * w;
                self.capture_buf[k * w..(k + 1) * w].copy_from_slice(&self.planes[s..s + w]);
            }
        }
        let levels = levels_for(w);
        for (k, cap) in caps.iter().enumerate() {
            let slot = cap.comp as usize;
            // A capture whose input net is unchanged since this
            // register's last capture of the *same* net re-stores the
            // held value: no stored-bit or output-net toggles, nothing
            // to count or write.
            if self.cap_in[slot] == cap.input
                && self.meta[cap.input as usize].gen <= self.cseen[slot]
            {
                continue;
            }
            self.cseen[slot] = self.tick;
            self.cap_in[slot] = cap.input;
            let cb = slot * w;
            let sb = cap.input as usize * w;
            let ob = cap.out as usize * w;
            debug_assert_eq!(
                self.stored[cb..cb + w],
                self.planes[ob..ob + w],
                "stored state mirrors the register's output net"
            );
            let mut sum = [0u64; 8];
            if w <= 8 {
                let mut diffs = [0u64; 8];
                for (j, diff) in diffs.iter_mut().enumerate().take(w) {
                    let v = if chained {
                        self.capture_buf[k * w + j]
                    } else {
                        self.planes[sb + j]
                    };
                    *diff = self.stored[cb + j] ^ v;
                    self.stored[cb + j] = v;
                    self.planes[ob + j] = v;
                }
                fold_sum(levels, &diffs[..w], &mut sum);
            } else {
                for j in 0..w {
                    let v = if chained {
                        self.capture_buf[k * w + j]
                    } else {
                        self.planes[sb + j]
                    };
                    let d = self.stored[cb + j] ^ v;
                    self.stored[cb + j] = v;
                    self.planes[ob + j] = v;
                    csum_push(&mut sum, levels, d);
                }
            }
            if or_levels(&sum[..levels]) != 0 {
                self.store_count.add_sum(slot, &sum[..levels]);
                if let Some(t) = &mut self.totals {
                    t.store.add_sum(0, &sum[..levels]);
                    t.net.add_sum(0, &sum[..levels]);
                }
                self.meta[cap.out as usize].gen = self.tick;
            }
        }
    }

    /// Lane `l`'s running totals (profile mode): the bit-sliced twin of
    /// the scalar kernel's running-total snapshot.
    fn running_profile(&self, lane: usize) -> StepActivity {
        let t = self.totals.as_ref().expect("profiling collects totals");
        StepActivity {
            net_toggles: t.net.get(0, lane),
            input_toggles: t.input.get(0, lane) + self.fn_total,
            clock_pulses: self.clock_total,
            store_toggles: t.store.get(0, lane),
            control_toggles: self.control_toggles,
        }
    }
}

/// Evaluates `kind` over the operand plane rows `a`/`b` into `out`
/// (only the first `w` planes are written).
#[inline]
fn compute_planes<const W: usize>(width: u8, kind: PlaneOp, a: &[u64], b: &[u64], out: &mut [u64]) {
    let w = if W == 0 { a.len() } else { W };
    debug_assert_eq!(out.len(), w);
    match kind {
        PlaneOp::And => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x & y;
            }
        }
        PlaneOp::Or => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x | y;
            }
        }
        PlaneOp::Xor => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x ^ y;
            }
        }
        PlaneOp::Add => {
            // Ripple carry: sum = a ^ b ^ c, c' = ab | c(a ^ b);
            // the carry out of the top plane drops (wrapping).
            let mut carry = 0u64;
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                let xy = x ^ y;
                *o = xy ^ carry;
                carry = (x & y) | (carry & xy);
            }
        }
        PlaneOp::Sub => {
            // Borrow chain: diff = a ^ b ^ brw,
            // brw' = !a·b | !(a ^ b)·brw (wrapping).
            let mut brw = 0u64;
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                let xy = x ^ y;
                *o = xy ^ brw;
                brw = (!x & y) | (!xy & brw);
            }
        }
        PlaneOp::Gt => {
            // a > b ⇔ borrow-out of b − a; result is the 0/1 plane.
            let mut brw = 0u64;
            for (&x, &y) in b[..w].iter().zip(a) {
                brw = (!x & y) | (!(x ^ y) & brw);
            }
            out.fill(0);
            out[0] = brw;
        }
        PlaneOp::Lt => {
            // a < b ⇔ borrow-out of a − b.
            let mut brw = 0u64;
            for (&x, &y) in a[..w].iter().zip(b) {
                brw = (!x & y) | (!(x ^ y) & brw);
            }
            out.fill(0);
            out[0] = brw;
        }
        PlaneOp::Mul => {
            // Shift-add: for each multiplier bit k, conditionally
            // ripple-add `a << k` wherever lane bit `b_k` is set.
            // Exactly `wrapping_mul` masked to the width.
            out.fill(0);
            for (k, &cond) in b[..w].iter().enumerate() {
                if cond == 0 {
                    continue;
                }
                let mut carry = 0u64;
                for j in k..w {
                    let addend = a[j - k] & cond;
                    let acc = out[j];
                    let ax = acc ^ addend;
                    out[j] = ax ^ carry;
                    carry = (acc & addend) | (carry & ax);
                }
            }
        }
        PlaneOp::Fallback(op) => {
            // Transpose-execute-transpose: gather the lane values,
            // apply the exact scalar op, scatter the results. Dead
            // lanes compute on zeros — harmless and never read.
            let mut va = [0u64; BITSLICE_LANES];
            let mut vb = [0u64; BITSLICE_LANES];
            gather_lanes(&a[..w], &mut va);
            gather_lanes(&b[..w], &mut vb);
            for (x, &y) in va.iter_mut().zip(vb.iter()) {
                *x = op.apply(*x, y, width);
            }
            scatter_lanes(&va, out);
        }
    }
}

/// Transposes plane rows back to lane values: `out[l]` gets bit `j`
/// from plane `j`'s lane-`l` bit.
#[inline]
fn gather_lanes(planes: &[u64], out: &mut [u64; BITSLICE_LANES]) {
    out.fill(0);
    for (j, &plane) in planes.iter().enumerate() {
        for (l, v) in out.iter_mut().enumerate() {
            *v |= ((plane >> l) & 1) << j;
        }
    }
}

/// Transposes lane values into plane rows: plane `j`'s lane-`l` bit is
/// bit `j` of `vals[l]`.
#[inline]
fn scatter_lanes(vals: &[u64; BITSLICE_LANES], planes: &mut [u64]) {
    for (j, plane) in planes.iter_mut().enumerate() {
        let mut p = 0u64;
        for (l, &v) in vals.iter().enumerate() {
            p |= ((v >> j) & 1) << l;
        }
        *plane = p;
    }
}

/// Which multi-seed kernel executes a Monte-Carlo seed schedule.
///
/// Both backends are bit-identical per seed to the scalar compiled
/// kernel, so the choice is pure throughput: lane-major batching wins
/// on wide datapaths and small populations, bit-plane slicing wins on
/// narrow datapaths with many seeds (the paper's 4-bit benchmarks run
/// 64 seeds per word). Reports never encode the backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BatchBackend {
    /// Lane-major SoA batching ([`BatchedProgram`]), the default.
    #[default]
    Batched,
    /// Bit-plane packing ([`BitslicedProgram`]), 64 seeds per word.
    Bitsliced,
}

impl BatchBackend {
    /// Parses a CLI backend name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<BatchBackend> {
        match name {
            "batched" => Some(BatchBackend::Batched),
            "bitsliced" => Some(BatchBackend::Bitsliced),
            _ => None,
        }
    }
}

impl fmt::Display for BatchBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BatchBackend::Batched => "batched",
            BatchBackend::Bitsliced => "bitsliced",
        })
    }
}

/// A compiled multi-seed kernel behind the [`BatchBackend`] switch —
/// the one dispatch point every Monte-Carlo consumer (flow, explorer,
/// retrofit and rewrite verification, adaptive estimator) compiles
/// through.
// One instance exists per Monte-Carlo run and it lives on the stack of
// that run — the variant size gap never multiplies across a collection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SeedKernel<'a> {
    /// The lane-major batched kernel at a configured lane width.
    Batched(BatchedProgram<'a>),
    /// The bit-sliced kernel (population width fixed at 64).
    Bitsliced(BitslicedProgram<'a>),
}

impl<'a> SeedKernel<'a> {
    /// Compiles `netlist` under `mode` for `backend`; `lanes` applies
    /// to the batched backend only (the bit-sliced population width is
    /// structural).
    #[must_use]
    pub fn compile(
        netlist: &'a Netlist,
        mode: PowerMode,
        backend: BatchBackend,
        lanes: usize,
    ) -> Self {
        match backend {
            BatchBackend::Batched => {
                SeedKernel::Batched(BatchedProgram::compile(netlist, mode, lanes))
            }
            BatchBackend::Bitsliced => {
                SeedKernel::Bitsliced(BitslicedProgram::compile(netlist, mode))
            }
        }
    }

    /// The backend this kernel was compiled for.
    #[must_use]
    pub fn backend(&self) -> BatchBackend {
        match self {
            SeedKernel::Batched(_) => BatchBackend::Batched,
            SeedKernel::Bitsliced(_) => BatchBackend::Bitsliced,
        }
    }

    /// Seeds evaluated per sweep (the chunk granularity of adaptive
    /// early stopping).
    #[must_use]
    pub fn lanes(&self) -> usize {
        match self {
            SeedKernel::Batched(p) => p.lanes(),
            SeedKernel::Bitsliced(p) => p.lanes(),
        }
    }

    /// Runs every seed; `results[k]` is bit-identical to a scalar run
    /// with seed `seeds[k]` on either backend.
    #[must_use]
    pub fn run_seeds(
        &self,
        computations: usize,
        seeds: &[u64],
        collect_profile: bool,
    ) -> Vec<SimResult> {
        match self {
            SeedKernel::Batched(p) => p.run_seeds(computations, seeds, collect_profile),
            SeedKernel::Bitsliced(p) => p.run_seeds(computations, seeds, collect_profile),
        }
    }

    /// Activity-only variant for the power path.
    #[must_use]
    pub fn run_seeds_activity(
        &self,
        computations: usize,
        seeds: &[u64],
        collect_profile: bool,
    ) -> Vec<Activity> {
        match self {
            SeedKernel::Batched(p) => p.run_seeds_activity(computations, seeds, collect_profile),
            SeedKernel::Bitsliced(p) => p.run_seeds_activity(computations, seeds, collect_profile),
        }
    }

    /// Runs one explicit input stream per population member, a lane
    /// chunk per sweep: `streams[k][c * n + i]` is the value of input
    /// port `i` — in [`Netlist::inputs`] order, `n` ports — at
    /// computation `c`, and every stream holds `computations` rows.
    /// Values are masked to the datapath width. `runs[k]` is
    /// bit-identical, on either backend, to a scalar
    /// [`simulate_with_inputs`](crate::simulate_with_inputs) run over the
    /// same rows, with its outputs as dense rows. This is the entry for
    /// replaying one stimulus draw against several designs.
    #[must_use]
    pub fn run_streams(&self, computations: usize, streams: &[Vec<u64>]) -> Vec<StreamRun> {
        match self {
            SeedKernel::Batched(p) => p.run_streams(computations, streams),
            SeedKernel::Bitsliced(p) => p.run_streams(computations, streams),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimConfig};
    use mc_alloc::{allocate, AllocOptions, Strategy};
    use mc_clocks::ClockScheme;
    use mc_dfg::benchmarks;

    fn hal(n: u32) -> Netlist {
        let bm = benchmarks::hal();
        let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(n).unwrap());
        allocate(&bm.dfg, &bm.schedule, &opts).unwrap().netlist
    }

    #[test]
    fn seeds_match_scalar_runs() {
        let nl = hal(3);
        let mode = PowerMode::multiclock();
        let seeds: Vec<u64> = (0..5).map(|k| 100 + k * 13).collect();
        let sliced = BitslicedProgram::compile(&nl, mode).run_seeds(8, &seeds, true);
        assert_eq!(sliced.len(), seeds.len());
        for (k, &seed) in seeds.iter().enumerate() {
            let cfg = SimConfig::new(mode, 8, seed).with_profile();
            let scalar = simulate(&nl, &cfg);
            assert_eq!(sliced[k].activity, scalar.activity, "seed {seed}");
            assert_eq!(sliced[k].outputs, scalar.outputs, "seed {seed}");
        }
    }

    #[test]
    fn population_overflow_chunks_into_two_sweeps() {
        let nl = hal(2);
        let mode = PowerMode::gated();
        let seeds: Vec<u64> = (0..65).map(|k| 7 + k * 3).collect();
        let program = BitslicedProgram::compile(&nl, mode);
        let sliced = program.run_seeds(3, &seeds, false);
        let activities = program.run_seeds_activity(3, &seeds, false);
        assert_eq!(sliced.len(), 65);
        for (k, &seed) in seeds.iter().enumerate() {
            let scalar = simulate(&nl, &SimConfig::new(mode, 3, seed));
            assert_eq!(sliced[k].activity, scalar.activity, "seed {seed}");
            assert_eq!(sliced[k].outputs, scalar.outputs, "seed {seed}");
            assert_eq!(activities[k], scalar.activity, "activity path, seed {seed}");
        }
    }

    #[test]
    fn zero_computations_yield_empty_results() {
        let nl = hal(2);
        let res =
            BitslicedProgram::compile(&nl, PowerMode::multiclock()).run_seeds(0, &[1, 2], false);
        assert_eq!(res.len(), 2);
        for r in &res {
            assert_eq!(r.activity.steps, 0);
            assert!(r.outputs.is_empty());
        }
    }

    #[test]
    fn explicit_streams_match_scalar_simulation_on_both_backends() {
        let nl = hal(3);
        let mode = PowerMode::non_gated();
        let computations = 5;
        // Five members: a full and a partial chunk at 4 lanes. Values
        // carry bits above the 4-bit width, which both kernels mask
        // exactly as the scalar binding does.
        let streams: Vec<Vec<u64>> = (0..5u64)
            .map(|seed| {
                let mut rng = mc_prng::Xoshiro256::seed_from_u64(seed);
                (0..computations * nl.inputs().len())
                    .map(|_| rng.next_u64() & 0xFF)
                    .collect()
            })
            .collect();
        let ports = nl.outputs().len();
        for backend in [BatchBackend::Batched, BatchBackend::Bitsliced] {
            let runs =
                SeedKernel::compile(&nl, mode, backend, 4).run_streams(computations, &streams);
            assert_eq!(runs.len(), streams.len());
            for (k, (stream, run)) in streams.iter().zip(&runs).enumerate() {
                let vectors: Vec<std::collections::BTreeMap<String, u64>> = stream
                    .chunks(nl.inputs().len())
                    .map(|row| {
                        nl.inputs()
                            .iter()
                            .zip(row)
                            .map(|((name, _), &v)| (name.clone(), v))
                            .collect()
                    })
                    .collect();
                let scalar = crate::try_simulate_with_inputs(&nl, mode, &vectors, false).unwrap();
                assert_eq!(run.activity, scalar.activity, "{backend} member {k}");
                assert_eq!(run.outputs.len(), computations * ports);
                assert_eq!(
                    run.clone().into_sim_result(&nl).outputs,
                    scalar.outputs,
                    "{backend} member {k}"
                );
            }
        }
    }

    #[test]
    fn seed_kernel_backends_agree() {
        let nl = hal(2);
        let mode = PowerMode::multiclock();
        let seeds = [5u64, 6, 7];
        let batched = SeedKernel::compile(&nl, mode, BatchBackend::Batched, 16);
        let sliced = SeedKernel::compile(&nl, mode, BatchBackend::Bitsliced, 16);
        assert_eq!(batched.backend(), BatchBackend::Batched);
        assert_eq!(sliced.backend(), BatchBackend::Bitsliced);
        assert_eq!(sliced.lanes(), BITSLICE_LANES);
        assert_eq!(
            batched.run_seeds_activity(6, &seeds, false),
            sliced.run_seeds_activity(6, &seeds, false)
        );
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [BatchBackend::Batched, BatchBackend::Bitsliced] {
            assert_eq!(BatchBackend::from_name(&b.to_string()), Some(b));
        }
        assert_eq!(BatchBackend::from_name("warp"), None);
        assert_eq!(BatchBackend::default(), BatchBackend::Batched);
    }

    #[test]
    fn vertical_counters_grow_past_initial_depth() {
        let mut vc = VerticalCounters::new(2);
        let n = (1u64 << VerticalCounters::INITIAL_DEPTH) + 5;
        for _ in 0..n {
            vc.add_sum(1, &[u64::MAX]);
        }
        for lane in [0usize, 63] {
            assert_eq!(vc.get(1, lane), n);
            assert_eq!(vc.get(0, lane), 0);
        }
        assert_eq!(vc.folds, n);
    }

    #[test]
    fn column_sums_fold_batches_exactly() {
        let levels = levels_for(4);
        assert_eq!(levels, 3);
        let mut sum = [0u64; 8];
        // Lane 0 toggles in all four pushes, lane 1 in two, lane 2 in
        // none.
        csum_push(&mut sum, levels, 0b01);
        csum_push(&mut sum, levels, 0b11);
        csum_push(&mut sum, levels, 0b01);
        csum_push(&mut sum, levels, 0b11);
        let mut vc = VerticalCounters::new(1);
        vc.add_sum(0, &sum[..levels]);
        assert_eq!(vc.get(0, 0), 4);
        assert_eq!(vc.get(0, 1), 2);
        assert_eq!(vc.get(0, 2), 0);
    }
}
