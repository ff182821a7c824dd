//! Stimulus replay: the equivalence check behind the retrofit and
//! rewrite verifiers.
//!
//! A *reference* and a *candidate* design run on identical stimulus and
//! must produce identical outputs. Each seed's
//! [`Stimulus::UniformRandom`] stream is drawn once from the reference's
//! input ports and bound to each design's own port order by name (a
//! converted design may list its inputs in a different order). Each
//! design compiles once into the selected multi-seed kernel at
//! [`Flow::DEFAULT_BATCH`] lanes (the bit-sliced kernel always runs 64),
//! and the seeds sweep through it one lane chunk at a time, so memory
//! stays bounded by lanes × computations whatever the seed count.
//! Outputs come back as dense rows and compare by port name.
//!
//! The first divergence is reported in seed-schedule order, then
//! computation order, then sorted port-name order: the order a per-seed
//! replay over name-keyed output maps finds it in. So the error is
//! deterministic, and independent of backend and lane width.

use std::collections::BTreeMap;

use mc_rtl::{Netlist, PowerMode};
use mc_sim::{Activity, BatchBackend, SeedKernel, SimError, Stimulus, StreamRun};

use crate::flow::Flow;

/// How to replay: the seed schedule, its depth and its kernel.
pub(crate) struct Plan<'s> {
    /// Computations simulated per seed.
    pub computations: usize,
    /// Stimulus seeds, in reporting order.
    pub seeds: &'s [u64],
    /// The multi-seed kernel both designs compile into.
    pub backend: BatchBackend,
}

/// Why a replay failed.
pub(crate) enum Failure {
    /// The candidate reads an input the reference's stimulus lacks.
    Sim(SimError),
    /// The first output divergence.
    Diverged {
        seed: u64,
        computation: usize,
        port: String,
        reference: u64,
        candidate: u64,
    },
}

/// Per-seed activities of both designs, in seed order.
pub(crate) struct Replayed {
    pub reference: Vec<Activity>,
    pub candidate: Vec<Activity>,
}

/// One design under replay: its kernel plus, per input port, the
/// stimulus column that drives it.
struct Side<'a> {
    kernel: SeedKernel<'a>,
    columns: Vec<usize>,
}

impl<'a> Side<'a> {
    /// Compiles `netlist` and binds its inputs by name to the stimulus
    /// columns in `names` (a repeated name binds to its last column, as
    /// a name-keyed vector would). Fails like a scalar binding of the
    /// first computation when an input has no column — unless there are
    /// no computations to bind.
    fn new(
        netlist: &'a Netlist,
        mode: PowerMode,
        names: &BTreeMap<&str, usize>,
        plan: &Plan<'_>,
    ) -> Result<Self, SimError> {
        let mut columns = Vec::with_capacity(netlist.inputs().len());
        for (name, _) in netlist.inputs() {
            match names.get(name.as_str()) {
                Some(&col) => columns.push(col),
                None if plan.computations == 0 => columns.push(0),
                None => {
                    return Err(SimError::MissingInput {
                        input: name.clone(),
                        computation: 0,
                    })
                }
            }
        }
        let kernel = SeedKernel::compile(netlist, mode, plan.backend, Flow::DEFAULT_BATCH);
        Ok(Side { kernel, columns })
    }

    /// Binds each drawn stream (rows of `width` reference columns) to
    /// this design's port order and runs them.
    fn run(&self, computations: usize, width: usize, draws: &[Vec<u64>]) -> Vec<StreamRun> {
        let streams: Vec<Vec<u64>> = draws
            .iter()
            .map(|draw| {
                (0..computations)
                    .flat_map(|c| {
                        let row = &draw[c * width..(c + 1) * width];
                        self.columns.iter().map(move |&col| row[col])
                    })
                    .collect()
            })
            .collect();
        self.kernel.run_streams(computations, &streams)
    }
}

/// How the candidate's output rows line up with the reference's.
struct Ports {
    /// Per reference port name, in sorted order: the name, its
    /// reference column and its candidate column, if any.
    names: Vec<(String, usize, Option<usize>)>,
    reference: usize,
    candidate: usize,
    /// Both designs have the same set of output names.
    same_names: bool,
}

impl Ports {
    fn new(reference: &Netlist, candidate: &Netlist) -> Self {
        // Name → last column, as a name-keyed output map keeps it.
        let index = |nl: &Netlist| -> BTreeMap<String, usize> {
            nl.outputs()
                .iter()
                .enumerate()
                .map(|(k, (name, _))| (name.clone(), k))
                .collect()
        };
        let (r, c) = (index(reference), index(candidate));
        Ports {
            same_names: r.keys().eq(c.keys()),
            names: r
                .into_iter()
                .map(|(name, col)| {
                    let other = c.get(&name).copied();
                    (name, col, other)
                })
                .collect(),
            reference: reference.outputs().len(),
            candidate: candidate.outputs().len(),
        }
    }

    /// Seed `seed`'s first computation whose outputs differ, with the
    /// first differing port by name and both values. A port the
    /// candidate lacks reads as `u64::MAX`; if only the name sets differ,
    /// the port is `<ports>` with both values 0.
    fn first_divergence(
        &self,
        seed: u64,
        computations: usize,
        reference: &[u64],
        candidate: &[u64],
    ) -> Option<Failure> {
        let diverged = |computation, port, reference, candidate| Failure::Diverged {
            seed,
            computation,
            port,
            reference,
            candidate,
        };
        for c in 0..computations {
            let r = &reference[c * self.reference..(c + 1) * self.reference];
            let k = &candidate[c * self.candidate..(c + 1) * self.candidate];
            let port = self.names.iter().find_map(|(name, rc, kc)| {
                let (rv, kv) = (r[*rc], kc.map_or(u64::MAX, |kc| k[kc]));
                (rv != kv).then(|| diverged(c, name.clone(), rv, kv))
            });
            if port.is_some() {
                return port;
            }
            if !self.same_names {
                return Some(diverged(c, "<ports>".to_owned(), 0, 0));
            }
        }
        None
    }
}

/// Replays `plan`'s seeds through `reference` and `candidate` (each a
/// netlist and the power mode it runs in) and requires identical
/// outputs for every seed and computation.
pub(crate) fn replay(
    reference: (&Netlist, PowerMode),
    candidate: (&Netlist, PowerMode),
    plan: &Plan<'_>,
) -> Result<Replayed, Failure> {
    let (ref_nl, cand_nl) = (reference.0, candidate.0);
    let width = ref_nl.inputs().len();
    let names: BTreeMap<&str, usize> = ref_nl
        .inputs()
        .iter()
        .enumerate()
        .map(|(col, (name, _))| (name.as_str(), col))
        .collect();
    let ref_side = Side::new(ref_nl, reference.1, &names, plan).map_err(Failure::Sim)?;
    let cand_side = Side::new(cand_nl, candidate.1, &names, plan).map_err(Failure::Sim)?;
    let ports = Ports::new(ref_nl, cand_nl);
    let mut out = Replayed {
        reference: Vec::with_capacity(plan.seeds.len()),
        candidate: Vec::with_capacity(plan.seeds.len()),
    };
    let n = plan.computations;
    for chunk in plan.seeds.chunks(ref_side.kernel.lanes()) {
        let draws: Vec<Vec<u64>> = chunk
            .iter()
            .map(|&seed| Stimulus::UniformRandom.flat_vectors(ref_nl, n, seed).values)
            .collect();
        let ref_runs = ref_side.run(n, width, &draws);
        let cand_runs = cand_side.run(n, width, &draws);
        for ((&seed, r), c) in chunk.iter().zip(ref_runs).zip(cand_runs) {
            if let Some(failure) = ports.first_divergence(seed, n, &r.outputs, &c.outputs) {
                return Err(failure);
            }
            out.reference.push(r.activity);
            out.candidate.push(c.activity);
        }
    }
    Ok(out)
}
