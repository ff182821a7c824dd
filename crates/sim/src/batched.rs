//! The batched multi-lane simulation kernel: M independent stimulus
//! seeds per pass over one compiled instruction stream. Apart from the
//! bit-sliced kernel, this is the only step loop that executes the
//! lowered programs of [`CompiledNetlist`].
//!
//! The lowering removes per-step map lookups; what remains per step is
//! instruction decode, the control-word addition and the pulse/capture
//! lists. Monte-Carlo power estimation wants tens of seeds per design
//! point, so the kernel stores its state vectors as lane-major
//! structure-of-arrays —
//!
//! ```text
//! one lane          nets[net]
//! batched           nets[net * lanes + lane]
//!
//!        net 0              net 1              net 2
//!   ┌────┬────┬────┐  ┌────┬────┬────┐  ┌────┬────┬────┐
//!   │ l0 │ l1 │ l2 │  │ l0 │ l1 │ l2 │  │ l0 │ l1 │ l2 │ …
//!   └────┴────┴────┘  └────┴────┴────┘  └────┴────┴────┘
//! ```
//!
//! — and executes every instruction once per step over all lanes. Decode,
//! control words, pulse lists and capture lists are amortized `lanes`×,
//! and the inner lane loops are branchless (toggle counts come from
//! unconditional XOR/popcount, which is exact: equal values contribute
//! zero flips), so the compiler can vectorize them.
//!
//! **A single seed is a one-lane batch.** [`simulate`](crate::simulate)
//! and every other single-seed entry point under
//! [`SimBackend::Compiled`](crate::SimBackend::Compiled) run here at
//! width 1. At that width the lane-major net row *is* the scalar net
//! vector, so the kernel records the per-step net trace there and only
//! there; wider batches never trace and pay nothing for it.
//!
//! **Lane determinism contract.** Lane `k` of a batched run is
//! bit-identical to an interpreter run
//! ([`SimBackend::Interpreter`](crate::SimBackend::Interpreter)) with
//! seed `seeds[k]`: same activity counters, same per-step profiles, same
//! outputs. Control toggles, controller pulses and memory clock pulses
//! are data-independent — identical across lanes — so the kernel counts
//! them once and replicates them into every lane's [`Activity`]; the
//! data-dependent counters (net, ALU-input and stored-bit toggles) live
//! in per-lane SoA arrays. The contract is enforced differentially by
//! `tests/sim_batched.rs` across every benchmark, mode, clock count and
//! lane width, and at width 1 by `tests/sim_backend.rs`.

use mc_dfg::Op;
use mc_rtl::{Netlist, PowerMode};

use crate::activity::{Activity, StepActivity};
use crate::compiled::{CompiledNetlist, Instr};
use crate::engine::{BoundInputs, SimResult, StreamRun};

/// Widest supported lane count. Wider batches stop paying off once the
/// SoA working set falls out of cache; requests beyond this are clamped.
pub const MAX_LANES: usize = 64;

/// A compiled program plus a lane width: the batched execution mode.
///
/// Compile once with [`BatchedProgram::compile`], then run any number of
/// seed batches through [`BatchedProgram::run_seeds`]. Each batch of up
/// to [`lanes`](BatchedProgram::lanes) seeds shares one sweep over the
/// instruction stream.
#[derive(Debug)]
pub struct BatchedProgram<'a> {
    program: CompiledNetlist<'a>,
    lanes: usize,
}

impl<'a> BatchedProgram<'a> {
    /// Lowers `netlist` under `mode` and fixes the lane width (clamped to
    /// `1..=`[`MAX_LANES`]).
    #[must_use]
    pub fn compile(netlist: &'a Netlist, mode: PowerMode, lanes: usize) -> Self {
        BatchedProgram {
            program: CompiledNetlist::compile(netlist, mode),
            lanes: lanes.clamp(1, MAX_LANES),
        }
    }

    /// The configured lane width.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Simulates `computations` random computations for every seed in
    /// `seeds`, batching them [`lanes`](BatchedProgram::lanes) at a time
    /// (a final partial batch runs at its own width). `results[k]` is
    /// bit-identical to a scalar run with seed `seeds[k]`.
    #[must_use]
    pub fn run_seeds(
        &self,
        computations: usize,
        seeds: &[u64],
        collect_profile: bool,
    ) -> Vec<SimResult> {
        seeds
            .chunks(self.lanes)
            .flat_map(|chunk| {
                run_seed_batch(&self.program, computations, chunk, collect_profile, true)
            })
            .map(|r| r.into_sim_result(self.program.netlist))
            .collect()
    }

    /// Like [`BatchedProgram::run_seeds`] but skips output collection and
    /// returns only each lane's [`Activity`] — the form Monte-Carlo power
    /// estimation consumes. The power model never reads outputs, and the
    /// activity counters are still bit-identical to scalar runs with the
    /// same seeds.
    #[must_use]
    pub fn run_seeds_activity(
        &self,
        computations: usize,
        seeds: &[u64],
        collect_profile: bool,
    ) -> Vec<Activity> {
        seeds
            .chunks(self.lanes)
            .flat_map(|chunk| {
                run_seed_batch(&self.program, computations, chunk, collect_profile, false)
            })
            .map(|r| r.activity)
            .collect()
    }

    /// Runs explicit input streams, [`lanes`](BatchedProgram::lanes) at a
    /// time; see [`SeedKernel::run_streams`](crate::SeedKernel::run_streams).
    pub(crate) fn run_streams(&self, computations: usize, streams: &[Vec<u64>]) -> Vec<StreamRun> {
        streams
            .chunks(self.lanes)
            .flat_map(|chunk| run_batch(&self.program, computations, chunk, false, true, None))
            .collect()
    }
}

/// Runs one bound input stream as a one-lane batch: the single-seed path
/// behind [`simulate`](crate::simulate) and [`CompiledNetlist`]'s entry
/// points. Returns the run and, when `collect_trace` is set, its
/// per-step net trace.
pub(crate) fn run_single(
    program: &CompiledNetlist<'_>,
    bound: &BoundInputs,
    collect_trace: bool,
    collect_profile: bool,
    collect_outputs: bool,
) -> (StreamRun, Option<Vec<Vec<u64>>>) {
    let mut trace = collect_trace.then(Vec::new);
    let run = run_batch(
        program,
        bound.computations,
        std::slice::from_ref(&bound.flat),
        collect_profile,
        collect_outputs,
        trace.as_mut(),
    )
    .pop()
    .expect("a one-lane batch yields one run");
    (run, trace)
}

/// Draws one batch's random streams — lane `l` gets the masked stream
/// [`BoundInputs::random`] draws for a scalar run with `seeds[l]` — and
/// runs them.
fn run_seed_batch(
    program: &CompiledNetlist<'_>,
    computations: usize,
    seeds: &[u64],
    collect_profile: bool,
    collect_outputs: bool,
) -> Vec<StreamRun> {
    let flats: Vec<Vec<u64>> = seeds
        .iter()
        .map(|&seed| BoundInputs::random(program.netlist, computations, seed).flat)
        .collect();
    run_batch(
        program,
        computations,
        &flats,
        collect_profile,
        collect_outputs,
        None,
    )
}

/// Runs one batch of `flats.len() <= lanes` input streams through a
/// single sweep. `trace`, which only a one-stream batch may pass,
/// receives the net vector after every step.
///
/// Dispatches to a monomorphized kernel for the next power-of-two lane
/// width: with the width a compile-time constant every row loop has a
/// known trip count, so LLVM unrolls and vectorizes them — with a
/// runtime width the same loops run a generic scalar path and the batch
/// amortization is lost in slicing overhead. Partial batches are padded
/// with the last stream (lanes are independent, so padding changes
/// nothing) and truncated after.
fn run_batch(
    program: &CompiledNetlist<'_>,
    computations: usize,
    flats: &[Vec<u64>],
    collect_profile: bool,
    collect_outputs: bool,
    trace: Option<&mut Vec<Vec<u64>>>,
) -> Vec<StreamRun> {
    let wanted = flats.len();
    debug_assert!((1..=MAX_LANES).contains(&wanted));
    debug_assert!(trace.is_none() || wanted == 1, "only one lane traces");
    let mut padded: Vec<&[u64]> = flats.iter().map(Vec::as_slice).collect();
    macro_rules! dispatch {
        ($($w:literal),+) => {
            $(if wanted <= $w {
                padded.resize($w, padded[wanted - 1]);
                let mut results = run_batch_impl::<$w>(
                    program,
                    computations,
                    &padded,
                    collect_profile,
                    collect_outputs,
                    trace,
                );
                results.truncate(wanted);
                trace_batch(program, computations, wanted, $w, &results);
                return results;
            })+
            unreachable!("lane width exceeds MAX_LANES")
        };
    }
    dispatch!(1, 2, 4, 8, 16, 32, 64);
}

/// Records tracing counters for one dispatched batch. The kernel sweep
/// decodes each instruction once for all lanes, so the executed total is
/// the one-lane analytic count times the *active* lane count — padded
/// lanes are truncated away and do not count as work, keeping
/// `sim.instructions` independent of the configured batch width.
fn trace_batch(
    program: &CompiledNetlist<'_>,
    computations: usize,
    wanted: usize,
    width: usize,
    results: &[StreamRun],
) {
    if !mc_trace::enabled() {
        return;
    }
    mc_trace::count("sim.runs", wanted as u64);
    mc_trace::count(
        "sim.instructions",
        program.instructions_executed(computations) * wanted as u64,
    );
    mc_trace::count("sim.lanes.active", wanted as u64);
    mc_trace::count("sim.lanes.padded", (width - wanted) as u64);
    for r in results {
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

/// The monomorphized batch kernel: exactly `L` lanes, `L` a
/// compile-time constant so every row loop unrolls.
///
/// `flats[l][c * ni + i]` is lane `l`'s value for input `i` of
/// computation `c`. The streams stay lane-flat and rows are gathered
/// on the fly at the (rare) input-drive steps: transposing them into
/// one lane-major buffer up front would scatter half a million stores
/// across cache lines and cost more than the whole instruction sweep.
fn run_batch_impl<const L: usize>(
    p: &CompiledNetlist<'_>,
    computations: usize,
    flats: &[&[u64]],
    collect_profile: bool,
    collect_outputs: bool,
    mut trace: Option<&mut Vec<Vec<u64>>>,
) -> Vec<StreamRun> {
    let nl = p.netlist;
    debug_assert_eq!(flats.len(), L);
    let lanes = L;
    let ni = p.input_nets.len();
    debug_assert!(flats.iter().all(|f| f.len() == computations * ni));
    let n_nets = nl.num_nets();
    let nc = p.num_comps;
    let width = p.width;
    let mask = p.mask;

    // Lane-major state and data-dependent counters.
    let mut nets = vec![0u64; n_nets * lanes];
    for (i, &v) in p.init_nets.iter().enumerate() {
        nets[i * lanes..(i + 1) * lanes].fill(v);
    }
    let mut stored = vec![0u64; nc * lanes];
    let mut alu_a = vec![0u64; nc * lanes];
    let mut alu_b = vec![0u64; nc * lanes];
    let mut net_toggles = vec![0u64; n_nets * lanes];
    let mut input_toggles = vec![0u64; nc * lanes];
    let mut store_toggles = vec![0u64; nc * lanes];
    // Per-lane running totals feeding O(1) per-step profile deltas.
    let mut net_total = vec![0u64; lanes];
    let mut input_total = vec![0u64; lanes];
    let mut store_total = vec![0u64; lanes];
    // Data-independent counters: identical in every lane, kept once
    // (per-element clock pulses are analytic).
    let clock_pulses = p.clock_pulses(computations);
    let mut clock_total = 0u64;
    let mut control_toggles = 0u64;
    let mut controller_pulses = 0u64;
    let mut steps = 0u64;

    let mut per_step: Option<Vec<Vec<StepActivity>>> = if collect_profile {
        Some(vec![Vec::new(); lanes])
    } else {
        None
    };
    let mut prev = vec![StepActivity::default(); lanes];

    // Reusable lane rows: operand gathers, the ALU result row and the
    // two-phase capture buffer.
    let mut row_a = vec![0u64; lanes];
    let mut row_b = vec![0u64; lanes];
    let mut capture_buf = vec![0u64; p.max_captures * lanes];
    let output_nets: Vec<usize> = nl.outputs().iter().map(|(_, n)| n.index()).collect();
    let rows = if collect_outputs {
        computations * output_nets.len()
    } else {
        0
    };
    let mut outputs: Vec<Vec<u64>> = vec![Vec::with_capacity(rows); lanes];

    // Reset preload (silent: no activity counted).
    if computations > 0 {
        for (i, &net) in p.input_nets.iter().enumerate() {
            let base = net as usize * lanes;
            for (slot, f) in nets[base..base + lanes].iter_mut().zip(flats) {
                *slot = f[i] & mask;
            }
        }
        for instr in &p.preload_instrs {
            match *instr {
                Instr::Copy { src, dst } => {
                    let s = src as usize * lanes;
                    nets.copy_within(s..s + lanes, dst as usize * lanes);
                }
                Instr::Alu { a, b, dst, op, .. } => {
                    let sa = a as usize * lanes;
                    let sb = b as usize * lanes;
                    let d = dst as usize * lanes;
                    row_a.copy_from_slice(&nets[sa..sa + lanes]);
                    row_b.copy_from_slice(&nets[sb..sb + lanes]);
                    apply_row(op, width, &row_a, &row_b, &mut nets[d..d + lanes]);
                }
                Instr::AluFrozen { .. } => {
                    unreachable!("preload settle has no frozen ALUs")
                }
            }
        }
        for cap in &p.preload_captures {
            let s = cap.input as usize * lanes;
            let c = cap.comp as usize * lanes;
            stored[c..c + lanes].copy_from_slice(&nets[s..s + lanes]);
            nets.copy_within(s..s + lanes, cap.out as usize * lanes);
        }
    }

    for c in 0..computations {
        let programs = if c == 0 { &p.cold } else { &p.warm };
        for t in 1..=p.period {
            let program = &programs[(t - 1) as usize];
            // 1. Drive ports at the boundary step (counted).
            if t == p.period && c + 1 < computations {
                let base = (c + 1) * ni;
                for (i, &net) in p.input_nets.iter().enumerate() {
                    for (slot, f) in row_a.iter_mut().zip(flats) {
                        *slot = f[base + i];
                    }
                    set_net_row(
                        &mut nets,
                        &mut net_toggles,
                        &mut net_total,
                        net,
                        lanes,
                        &row_a,
                        mask,
                    );
                }
            }
            // 2. Effective controls: precomputed, lane-independent.
            control_toggles += program.control_toggles;
            // 3. Combinational evaluation, one decode per batch.
            for instr in &program.instrs {
                match *instr {
                    Instr::Copy { src, dst } => {
                        copy_row::<L>(&mut nets, &mut net_toggles, &mut net_total, src, dst, mask);
                    }
                    Instr::Alu {
                        comp,
                        a,
                        b,
                        dst,
                        op,
                        fn_delta,
                    } => {
                        let slot = comp as usize * L;
                        alu_row::<L>(
                            op,
                            width,
                            mask,
                            fn_delta,
                            &mut nets,
                            &mut net_toggles,
                            a,
                            b,
                            dst,
                            AluRows {
                                hist_a: &mut alu_a[slot..slot + L],
                                hist_b: &mut alu_b[slot..slot + L],
                                input_toggles: &mut input_toggles[slot..slot + L],
                                input_total: &mut input_total,
                                net_total: &mut net_total,
                            },
                        );
                    }
                    Instr::AluFrozen { comp, dst, op } => {
                        let slot = comp as usize * L;
                        frozen_row::<L>(
                            op,
                            width,
                            mask,
                            &alu_a[slot..slot + L],
                            &alu_b[slot..slot + L],
                            &mut nets,
                            &mut net_toggles,
                            &mut net_total,
                            dst,
                        );
                    }
                }
            }
            // 4. Clock edges (lane-independent) and captures
            // (two-phase commit through the reusable buffer, all
            // lanes gathered before any write).
            clock_total += program.pulses.len() as u64;
            for (k, cap) in program.captures.iter().enumerate() {
                let s = cap.input as usize * lanes;
                capture_buf[k * lanes..(k + 1) * lanes].copy_from_slice(&nets[s..s + lanes]);
            }
            for (k, cap) in program.captures.iter().enumerate() {
                let vals = &capture_buf[k * L..(k + 1) * L];
                let slot = cap.comp as usize * L;
                capture_row::<L>(
                    vals,
                    &mut stored[slot..slot + L],
                    &mut store_toggles[slot..slot + L],
                    &mut store_total,
                    &mut nets,
                    &mut net_toggles,
                    &mut net_total,
                    cap.out,
                    mask,
                );
            }
            controller_pulses += 1;
            steps += 1;
            // At one lane the net row is the scalar net vector; `L` is a
            // constant, so wider kernels compile this away.
            if L == 1 {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.push(nets.clone());
                }
            }
            if let Some(ps) = per_step.as_mut() {
                for l in 0..lanes {
                    let now = StepActivity {
                        net_toggles: net_total[l],
                        input_toggles: input_total[l],
                        clock_pulses: clock_total,
                        store_toggles: store_total[l],
                        control_toggles,
                    };
                    ps[l].push(StepActivity {
                        net_toggles: now.net_toggles - prev[l].net_toggles,
                        input_toggles: now.input_toggles - prev[l].input_toggles,
                        clock_pulses: now.clock_pulses - prev[l].clock_pulses,
                        store_toggles: now.store_toggles - prev[l].store_toggles,
                        control_toggles: now.control_toggles - prev[l].control_toggles,
                    });
                    prev[l] = now;
                }
            }
        }
        if collect_outputs {
            for (l, lane_outputs) in outputs.iter_mut().enumerate() {
                lane_outputs.extend(output_nets.iter().map(|&net| nets[net * lanes + l]));
            }
        }
    }

    // Scatter the SoA counters into one per-lane Activity each;
    // lane-independent counters replicate verbatim.
    outputs
        .into_iter()
        .enumerate()
        .map(|(l, lane_outputs)| {
            let mut activity = Activity::new(n_nets, nc);
            activity.steps = steps;
            activity.computations = computations as u64;
            for (i, tog) in activity.net_toggles.iter_mut().enumerate() {
                *tog = net_toggles[i * lanes + l];
            }
            for i in 0..nc {
                activity.input_toggles[i] = input_toggles[i * lanes + l];
                activity.store_toggles[i] = store_toggles[i * lanes + l];
            }
            activity.clock_pulses.clone_from(&clock_pulses);
            activity.control_toggles = control_toggles;
            activity.controller_pulses = controller_pulses;
            if let Some(ps) = per_step.as_mut() {
                activity.per_step = Some(std::mem::take(&mut ps[l]));
            }
            StreamRun {
                activity,
                outputs: lane_outputs,
            }
        })
        .collect()
}

/// Commits a row of lane values to net `net`, counting bit flips per
/// lane. Branchless twin of the interpreter's `set_net`: equal values
/// contribute zero flips, so the counters stay bit-identical while the
/// loop stays vectorizable (the zips carry the lane count into every
/// access, so no bounds check survives into the loop body).
#[inline]
fn set_net_row(
    nets: &mut [u64],
    net_toggles: &mut [u64],
    net_total: &mut [u64],
    net: u32,
    lanes: usize,
    values: &[u64],
    mask: u64,
) {
    let base = net as usize * lanes;
    let row = nets[base..base + lanes]
        .iter_mut()
        .zip(&mut net_toggles[base..base + lanes]);
    for ((r, t), (&v, total)) in row.zip(values.iter().zip(net_total)) {
        let v = v & mask;
        let flips = u64::from((*r ^ v).count_ones());
        *t += flips;
        *total += flips;
        *r = v;
    }
}

/// Applies `op` lane-wise: `out[l] = op.apply(a[l], b[l], width)`.
///
/// The dispatch on `op` happens once per row, not once per lane — each
/// arm re-invokes [`Op::apply`] with the operation now a compile-time
/// constant, so the inner match folds away and every arm becomes a tight
/// loop over the lanes with the exact scalar semantics.
#[inline]
fn apply_row(op: Op, width: u8, a: &[u64], b: &[u64], out: &mut [u64]) {
    macro_rules! unswitch {
        ($($v:ident),+) => {
            match op {
                $(Op::$v => {
                    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                        *o = Op::$v.apply(x, y, width);
                    }
                })+
            }
        };
    }
    unswitch!(Add, Sub, Mul, Div, And, Or, Xor, Gt, Lt, Shl, Shr);
}

/// Fused `Copy` instruction: reads net `src`'s row and commits it to net
/// `dst` with flip counting, one loop, no scratch copy. Reads of a lane
/// happen before that lane's write, so `src == dst` behaves exactly like
/// the scalar `set_net(dst, net(src))`.
#[inline]
fn copy_row<const L: usize>(
    nets: &mut [u64],
    net_toggles: &mut [u64],
    net_total: &mut [u64],
    src: u32,
    dst: u32,
    mask: u64,
) {
    let s = src as usize * L;
    let d = dst as usize * L;
    // Stack row of the source: the loop then touches `nets` only through
    // the destination row, so LLVM needs no overlap checks to vectorize.
    let mut vals = [0u64; L];
    vals.copy_from_slice(&nets[s..s + L]);
    let row = &mut nets[d..d + L];
    let tog = &mut net_toggles[d..d + L];
    let net_total = &mut net_total[..L];
    for l in 0..L {
        let v = vals[l] & mask;
        let flips = u64::from((row[l] ^ v).count_ones());
        tog[l] += flips;
        net_total[l] += flips;
        row[l] = v;
    }
}

/// The per-computation ALU state rows a fused live-ALU step touches,
/// all `L` long.
struct AluRows<'r> {
    hist_a: &'r mut [u64],
    hist_b: &'r mut [u64],
    input_toggles: &'r mut [u64],
    input_total: &'r mut [u64],
    net_total: &'r mut [u64],
}

/// One fused lane pass for a live ALU instruction: operand-history
/// toggles, the operation itself and the destination-net commit, in a
/// single loop with no operand scratch copies. Operands are read out of
/// `nets` before the destination lane is written, so `dst == a` or
/// `dst == b` behaves exactly like the interpreter (read, then
/// `set_net`). As in [`apply_row`], the op dispatch is hoisted out of
/// the loop, so each arm is a tight branchless body with the exact
/// scalar semantics.
#[inline]
#[allow(clippy::too_many_arguments)]
fn alu_row<const L: usize>(
    op: Op,
    width: u8,
    mask: u64,
    fn_delta: u64,
    nets: &mut [u64],
    net_toggles: &mut [u64],
    a: u32,
    b: u32,
    dst: u32,
    rows: AluRows<'_>,
) {
    let sa = a as usize * L;
    let sb = b as usize * L;
    let sd = dst as usize * L;
    // Stack rows of both operands (reads complete before the destination
    // write, preserving scalar semantics when `dst == a` or `dst == b`):
    // the loop then touches `nets` only through the destination row, so
    // every stream is provably disjoint and the loop vectorizes without
    // runtime overlap checks.
    let mut va_row = [0u64; L];
    let mut vb_row = [0u64; L];
    va_row.copy_from_slice(&nets[sa..sa + L]);
    vb_row.copy_from_slice(&nets[sb..sb + L]);
    let dst_row = &mut nets[sd..sd + L];
    let dst_tog = &mut net_toggles[sd..sd + L];
    let hist_a = &mut rows.hist_a[..L];
    let hist_b = &mut rows.hist_b[..L];
    let input_toggles = &mut rows.input_toggles[..L];
    let input_total = &mut rows.input_total[..L];
    let net_total = &mut rows.net_total[..L];
    macro_rules! unswitch {
        ($($v:ident),+) => {
            match op {
                $(Op::$v => {
                    for l in 0..L {
                        let (va, vb) = (va_row[l], vb_row[l]);
                        let toggled = u64::from((hist_a[l] ^ va).count_ones())
                            + u64::from((hist_b[l] ^ vb).count_ones())
                            + fn_delta;
                        input_toggles[l] += toggled;
                        input_total[l] += toggled;
                        hist_a[l] = va;
                        hist_b[l] = vb;
                        let v = Op::$v.apply(va, vb, width) & mask;
                        let flips = u64::from((dst_row[l] ^ v).count_ones());
                        dst_tog[l] += flips;
                        net_total[l] += flips;
                        dst_row[l] = v;
                    }
                })+
            }
        };
    }
    unswitch!(Add, Sub, Mul, Div, And, Or, Xor, Gt, Lt, Shl, Shr);
}

/// One fused lane pass for a frozen ALU instruction: recomputes the op
/// over the frozen operand history (disjoint from `nets`, so the loop
/// vectorizes without overlap checks) and commits to the destination net
/// with flip counting — `apply_row` + `set_net_row` in a single sweep.
#[inline]
#[allow(clippy::too_many_arguments)]
fn frozen_row<const L: usize>(
    op: Op,
    width: u8,
    mask: u64,
    hist_a: &[u64],
    hist_b: &[u64],
    nets: &mut [u64],
    net_toggles: &mut [u64],
    net_total: &mut [u64],
    dst: u32,
) {
    let sd = dst as usize * L;
    let dst_row = &mut nets[sd..sd + L];
    let dst_tog = &mut net_toggles[sd..sd + L];
    let hist_a = &hist_a[..L];
    let hist_b = &hist_b[..L];
    let net_total = &mut net_total[..L];
    macro_rules! unswitch {
        ($($v:ident),+) => {
            match op {
                $(Op::$v => {
                    for l in 0..L {
                        let v = Op::$v.apply(hist_a[l], hist_b[l], width) & mask;
                        let flips = u64::from((dst_row[l] ^ v).count_ones());
                        dst_tog[l] += flips;
                        net_total[l] += flips;
                        dst_row[l] = v;
                    }
                })+
            }
        };
    }
    unswitch!(Add, Sub, Mul, Div, And, Or, Xor, Gt, Lt, Shl, Shr);
}

/// One fused lane pass for a register capture: stored-bit toggle update
/// and destination-net commit straight from the two-phase capture
/// buffer, in a single sweep instead of two. The buffer row is read-only
/// here and every mutable stream is disjoint, so the loop vectorizes
/// cleanly.
#[inline]
#[allow(clippy::too_many_arguments)]
fn capture_row<const L: usize>(
    vals: &[u64],
    stored: &mut [u64],
    store_toggles: &mut [u64],
    store_total: &mut [u64],
    nets: &mut [u64],
    net_toggles: &mut [u64],
    net_total: &mut [u64],
    out: u32,
    mask: u64,
) {
    let sd = out as usize * L;
    let dst_row = &mut nets[sd..sd + L];
    let dst_tog = &mut net_toggles[sd..sd + L];
    let vals = &vals[..L];
    let stored = &mut stored[..L];
    let store_toggles = &mut store_toggles[..L];
    let store_total = &mut store_total[..L];
    let net_total = &mut net_total[..L];
    for l in 0..L {
        let v = vals[l];
        let sflips = u64::from((stored[l] ^ v).count_ones());
        store_toggles[l] += sflips;
        store_total[l] += sflips;
        stored[l] = v;
        let vm = v & mask;
        let nflips = u64::from((dst_row[l] ^ vm).count_ones());
        dst_tog[l] += nflips;
        net_total[l] += nflips;
        dst_row[l] = vm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimBackend, SimConfig};
    use mc_alloc::{allocate, AllocOptions, Strategy};
    use mc_clocks::ClockScheme;
    use mc_dfg::benchmarks;

    fn hal(n: u32) -> Netlist {
        let bm = benchmarks::hal();
        let opts = AllocOptions::new(Strategy::Integrated, ClockScheme::new(n).unwrap());
        allocate(&bm.dfg, &bm.schedule, &opts).unwrap().netlist
    }

    /// Held to the interpreter: a one-lane run under the default backend
    /// is this kernel itself.
    #[test]
    fn lanes_match_scalar_runs() {
        let nl = hal(3);
        let mode = PowerMode::multiclock();
        let seeds: Vec<u64> = (0..5).map(|k| 100 + k * 13).collect();
        let batched = BatchedProgram::compile(&nl, mode, 4).run_seeds(8, &seeds, true);
        assert_eq!(batched.len(), seeds.len());
        for (k, &seed) in seeds.iter().enumerate() {
            let cfg = SimConfig::new(mode, 8, seed)
                .with_profile()
                .with_backend(SimBackend::Interpreter);
            let scalar = simulate(&nl, &cfg);
            assert_eq!(batched[k].activity, scalar.activity, "seed {seed}");
            assert_eq!(batched[k].outputs, scalar.outputs, "seed {seed}");
        }
    }

    #[test]
    fn zero_computations_yield_empty_results() {
        let nl = hal(2);
        let res =
            BatchedProgram::compile(&nl, PowerMode::multiclock(), 8).run_seeds(0, &[1, 2], false);
        assert_eq!(res.len(), 2);
        for r in &res {
            assert_eq!(r.activity.steps, 0);
            assert!(r.outputs.is_empty());
        }
    }

    #[test]
    fn lane_width_is_clamped() {
        let nl = hal(1);
        let p = BatchedProgram::compile(&nl, PowerMode::non_gated(), 0);
        assert_eq!(p.lanes(), 1);
        let p = BatchedProgram::compile(&nl, PowerMode::non_gated(), 4096);
        assert_eq!(p.lanes(), MAX_LANES);
    }
}
