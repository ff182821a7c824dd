//! Holds the netlist's receivers index and the power model's price sheet
//! to the answers they replace: a brute-force scan of every component
//! for each net's readers, and pricing each activity from scratch.
//!
//! The goldens pin only each row's `total_mw`; these tests pin all eight
//! `PowerReport` fields bit for bit, on the 20 paper-table datapaths
//! under every power mode and on a 32-bit design.

use multiclock::dfg::benchmarks::{self, Benchmark};
use multiclock::power::{
    estimate_area, estimate_power, evaluate_design_monte_carlo, PowerReport, PriceSheet,
};
use multiclock::retrofit::retrofit_netlist;
use multiclock::rtl::{CompId, ComponentKind, NetId, Netlist, PowerMode};
use multiclock::sim::{Activity, CompiledNetlist};
use multiclock::tech::TechLibrary;
use multiclock::{DesignStyle, Synthesizer};

/// The five paper-table rows of `bm`, as netlists.
fn paper_datapaths(bm: &Benchmark) -> Vec<Netlist> {
    let synth = Synthesizer::for_benchmark(bm);
    DesignStyle::paper_rows()
        .into_iter()
        .map(|style| {
            synth
                .synthesize(style)
                .unwrap_or_else(|e| panic!("{} {style}: {e}", bm.name()))
                .datapath
                .netlist
        })
        .collect()
}

/// The 20 datapaths of Tables 1–4.
fn all_paper_datapaths() -> Vec<Netlist> {
    benchmarks::paper_benchmarks()
        .iter()
        .flat_map(paper_datapaths)
        .collect()
}

/// Every component reading `n`, each once, in id order, found by
/// scanning all components.
fn receivers_by_scan(netlist: &Netlist, n: NetId) -> Vec<CompId> {
    netlist
        .component_ids()
        .filter(|&c| netlist.component(c).data_inputs().contains(&n))
        .collect()
}

fn assert_receivers_match_scan(netlist: &Netlist, what: &str) {
    for n in netlist.net_ids() {
        assert_eq!(
            netlist.receivers_of(n),
            receivers_by_scan(netlist, n).as_slice(),
            "{what}: receivers of {n}"
        );
    }
}

#[test]
fn receivers_index_matches_a_scan_on_paper_designs_and_their_retrofits() {
    for netlist in all_paper_datapaths() {
        assert_receivers_match_scan(&netlist, netlist.name());
        if netlist.scheme().num_clocks() != 1 {
            continue;
        }
        for clocks in [2, 3] {
            let r = retrofit_netlist(netlist.clone(), clocks)
                .unwrap_or_else(|e| panic!("{} at {clocks} phases: {e}", netlist.name()));
            assert_receivers_match_scan(
                &r.converted,
                &format!("{} retrofit at {clocks} phases", netlist.name()),
            );
        }
    }
}

/// Pricing from scratch, as `estimate_power` did before the price sheet:
/// the oracle every sheet report must equal bit for bit. Fanout comes
/// from a component scan, not from the receivers index.
fn price_from_scratch(netlist: &Netlist, activity: &Activity, lib: &TechLibrary) -> PowerReport {
    let width = netlist.width();
    let w = f64::from(width);
    let steps = activity.steps.max(1) as f64;

    let mut clock_pj = 0.0;
    let mut storage_pj = 0.0;
    let mut alu_pj = 0.0;
    let mut mux_pj = 0.0;
    let mut wire_pj = 0.0;

    let mut receiver_cap = vec![0.0f64; netlist.num_nets()];
    for c in netlist.component_ids() {
        let comp = netlist.component(c);
        let per_bit = match comp.kind() {
            ComponentKind::Alu { .. } => lib.alu_port_cap_per_bit(),
            ComponentKind::Mux { .. } => lib.mux_input_cap_per_bit(),
            ComponentKind::Mem { .. } => lib.mem_input_cap_per_bit(),
            ComponentKind::Const { .. } | ComponentKind::Input => 0.0,
        };
        for n in comp.data_inputs() {
            receiver_cap[n.index()] += per_bit;
        }
    }
    for n in netlist.net_ids() {
        let fanout = receivers_by_scan(netlist, n).len();
        let cap_bit = lib.wire_cap_per_bit(fanout) + receiver_cap[n.index()];
        wire_pj += activity.net_toggles[n.index()] as f64 * lib.toggle_energy(cap_bit);
    }

    for c in netlist.component_ids() {
        let comp = netlist.component(c);
        match comp.kind() {
            ComponentKind::Alu { fs, .. } => {
                let frac = activity.input_toggles[c.index()] as f64 / (2.0 * w);
                alu_pj += frac * lib.full_swing_energy(lib.alu_internal_cap(*fs, width));
            }
            ComponentKind::Mux { inputs } => {
                mux_pj += activity.net_toggles[comp.output().index()] as f64
                    * lib.toggle_energy(lib.mux_internal_cap_per_bit(inputs.len()));
            }
            ComponentKind::Mem { kind, .. } => {
                clock_pj += activity.clock_pulses[c.index()] as f64
                    * lib.full_swing_energy(lib.mem_clock_cap(*kind, width));
                storage_pj += activity.store_toggles[c.index()] as f64
                    * lib.toggle_energy(lib.mem_store_cap_per_bit(*kind));
            }
            ComponentKind::Const { .. } | ComponentKind::Input => {}
        }
    }

    let control_pj = activity.control_toggles as f64
        * lib.toggle_energy(lib.controller_cap_per_toggle())
        + activity.controller_pulses as f64 * lib.full_swing_energy(lib.controller_clock_cap());

    let to_mw = |pj: f64| lib.power_mw(pj / steps);
    let clock_mw = to_mw(clock_pj);
    let storage_mw = to_mw(storage_pj);
    let alu_mw = to_mw(alu_pj);
    let mux_mw = to_mw(mux_pj);
    let wire_mw = to_mw(wire_pj);
    let control_mw = to_mw(control_pj);
    let base_area = estimate_area(netlist, PowerMode::non_gated(), lib).total_lambda2;
    let static_mw = lib.static_power_mw(base_area);
    PowerReport {
        total_mw: clock_mw + storage_mw + alu_mw + mux_mw + wire_mw + control_mw + static_mw,
        clock_mw,
        storage_mw,
        alu_mw,
        mux_mw,
        wire_mw,
        control_mw,
        static_mw,
    }
}

/// The eight fields of a report, as raw bits.
fn bits(r: &PowerReport) -> [u64; 8] {
    [
        r.total_mw,
        r.clock_mw,
        r.storage_mw,
        r.alu_mw,
        r.mux_mw,
        r.wire_mw,
        r.control_mw,
        r.static_mw,
    ]
    .map(f64::to_bits)
}

/// The Monte-Carlo fold of per-seed reports: each field averaged.
fn mean_report(reports: &[PowerReport]) -> PowerReport {
    let n = reports.len() as f64;
    let avg = |f: fn(&PowerReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    PowerReport {
        total_mw: avg(|r| r.total_mw),
        clock_mw: avg(|r| r.clock_mw),
        storage_mw: avg(|r| r.storage_mw),
        alu_mw: avg(|r| r.alu_mw),
        mux_mw: avg(|r| r.mux_mw),
        wire_mw: avg(|r| r.wire_mw),
        control_mw: avg(|r| r.control_mw),
        static_mw: avg(|r| r.static_mw),
    }
}

fn assert_sheet_matches_scratch(netlist: &Netlist, lib: &TechLibrary) {
    let sheet = PriceSheet::new(netlist, lib);
    for mode in [
        PowerMode::non_gated(),
        PowerMode::gated(),
        PowerMode::multiclock(),
    ] {
        let program = CompiledNetlist::compile(netlist, mode);
        let activities: Vec<Activity> = [3u64, 42, 2026]
            .into_iter()
            .map(|seed| program.run_activity(40, seed))
            .collect();
        let mut oracle = Vec::new();
        for (activity, seed) in activities.iter().zip([3u64, 42, 2026]) {
            let want = price_from_scratch(netlist, activity, lib);
            let what = format!("{} {mode:?} seed {seed}", netlist.name());
            assert_eq!(bits(&sheet.price(activity)), bits(&want), "{what}: sheet");
            assert_eq!(
                bits(&estimate_power(netlist, activity, lib)),
                bits(&want),
                "{what}: estimate_power"
            );
            oracle.push(want);
        }
        let mc = evaluate_design_monte_carlo(netlist, mode, lib, &activities);
        assert_eq!(
            bits(&mc.power),
            bits(&mean_report(&oracle)),
            "{} {mode:?}: Monte-Carlo mean",
            netlist.name()
        );
    }
}

#[test]
fn price_sheet_matches_pricing_from_scratch_on_paper_designs() {
    let lib = TechLibrary::vsc450();
    for netlist in all_paper_datapaths() {
        assert_sheet_matches_scratch(&netlist, &lib);
    }
}

#[test]
fn price_sheet_matches_pricing_from_scratch_at_width_32() {
    let lib = TechLibrary::vsc450();
    for netlist in paper_datapaths(&benchmarks::hal_w(32)) {
        assert_eq!(netlist.width(), 32);
        assert_sheet_matches_scratch(&netlist, &lib);
    }
}
