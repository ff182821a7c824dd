//! Totality of the netlist importers: no input, however mangled, may make
//! `from_vhdl` or `from_mcnl` panic, and every [`ImportError`] variant is
//! reachable through the public API with a usable line-located message.
//!
//! Mirrors the behavioural-DSL fuzz harness in
//! `crates/dfg/tests/parse_errors.rs`: deterministic PRNG garbage in three
//! flavours — raw bytes, printable ASCII soup, and valid exports with a
//! handful of single-byte mutations.

use mc_clocks::{ClockScheme, PhaseId};
use mc_dfg::{FunctionSet, Op};
use mc_prng::Xoshiro256;
use mc_rtl::export::{to_mcnl, to_vhdl};
use mc_rtl::import::{from_mcnl, from_vhdl, ImportError};
use mc_rtl::{Netlist, NetlistBuilder};
use mc_tech::MemKind;

/// A small but representative netlist: both memory kinds, a mux, an ALU,
/// a constant, scoped paths and a two-step controller.
fn sample() -> Netlist {
    let scheme = ClockScheme::new(2).unwrap();
    let mut nb = NetlistBuilder::new("fuzz_sample", 8, scheme, 2);
    nb.push_scope("io");
    let (_, a) = nb.add_input("a");
    let (_, b) = nb.add_input("b");
    nb.pop_scope();
    let (_, k) = nb.add_const(5);
    nb.push_scope("regs");
    let (r1, r1out) = nb.add_mem(MemKind::Latch, PhaseId::new(1), "acc");
    let (r2, r2out) = nb.add_mem(MemKind::Dff, PhaseId::new(2), "out");
    nb.pop_scope();
    let (m, mout) = nb.add_mux(vec![a, k, r2out], "m0");
    let (alu, aout) = nb.add_alu(FunctionSet::from_ops([Op::Add, Op::Mul]), mout, b, "alu0");
    nb.set_mem_input(r1, aout);
    nb.set_mem_input(r2, r1out);
    nb.mark_output("y", r2out);
    {
        let w = nb.controller_mut().word_mut(1);
        w.mux_sel.insert(m, 0);
        w.alu_fn.insert(alu, Op::Add);
        w.mem_load.insert(r1);
    }
    nb.controller_mut().word_mut(2).mem_load.insert(r2);
    nb.finish().unwrap()
}

/// Feed both importers deterministic garbage and require `Err` (or a
/// valid netlist), never a panic. The importers are the only path
/// user-authored structural text enters the system through.
#[test]
fn fuzz_smoke_never_panics() {
    let nl = sample();
    let corpora = [to_vhdl(&nl), to_mcnl(&nl)];
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_F00D);
    for round in 0..2000u64 {
        let source = match round % 3 {
            // Arbitrary bytes (lossily decoded — the importers take &str).
            0 => {
                let len = rng.below(400) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            }
            // Printable ASCII soup with newlines.
            1 => {
                let len = rng.below(400) as usize;
                (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.1) {
                            '\n'
                        } else {
                            (0x20 + rng.below(0x5f) as u8) as char
                        }
                    })
                    .collect()
            }
            // A valid export with random single-byte mutations.
            _ => {
                let base = &corpora[(round % 2) as usize];
                let mut bytes = base.as_bytes().to_vec();
                for _ in 0..=rng.below(6) {
                    let i = rng.below(bytes.len() as u64) as usize;
                    bytes[i] = rng.below(128) as u8;
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
        };
        // Ok is fine (a mutation can stay valid); panicking is not.
        let _ = from_vhdl(&source);
        let _ = from_mcnl(&source);
    }
}

/// Every `ImportError` variant is reachable through the public importers,
/// so no failure path is dead code or a hidden panic.
#[test]
fn every_error_variant_is_reachable() {
    let vhdl = to_vhdl(&sample());

    let syntax = from_mcnl("design d 8 1 1\nwhat is this\n").unwrap_err();
    assert!(
        matches!(syntax, ImportError::Syntax { line: 2, .. }),
        "{syntax}"
    );

    let unknown = from_mcnl("design d 8 1 1\nalu f (+) ghost ghost\n").unwrap_err();
    assert!(
        matches!(unknown, ImportError::UnknownName { line: 2, ref name } if name == "ghost"),
        "{unknown}"
    );

    let duplicate = from_mcnl("design d 8 1 1\ninput a\ninput a\n").unwrap_err();
    assert!(
        matches!(duplicate, ImportError::Duplicate { line: 3, ref name } if name == "a"),
        "{duplicate}"
    );

    let bad = from_mcnl("design d 8 1 1\ninput a\nlatch r 0 a\n").unwrap_err();
    assert!(
        matches!(bad, ImportError::BadValue { line: 3, .. }),
        "{bad}"
    );

    // Structural validation: phase 7 under a single clock.
    let netlist = from_mcnl("design d 8 1 1\ninput a\nlatch r 7 a\nctrl 1 load=r\n").unwrap_err();
    assert!(matches!(netlist, ImportError::Netlist(_)), "{netlist}");

    // Recorded identifiers must replay: tamper a path comment in the
    // VHDL so the recorded leaf disagrees with the derived one.
    let tampered = vhdl.replace("-- regs.acc [acc]", "-- regs.zzz [acc]");
    assert_ne!(tampered, vhdl, "mutation must hit an exported comment");
    let mismatch = from_vhdl(&tampered).unwrap_err();
    assert!(
        matches!(mismatch, ImportError::SignalMismatch { .. }),
        "{mismatch}"
    );
}

/// Datapath masks are `(1 << width) - 1`, so a 64-bit design would
/// simulate with every mask wrapped to zero. Both importers refuse it
/// with the typed width error and still accept 63 bits.
#[test]
fn sixty_four_bit_designs_are_rejected_by_both_importers() {
    let nl = sample();
    let mcnl = to_mcnl(&nl);
    let header = "design fuzz_sample 8 2 2";
    assert!(mcnl.contains(header), "export must carry the design line");
    let wide = from_mcnl(&mcnl.replace(header, "design fuzz_sample 64 2 2")).unwrap_err();
    assert!(
        matches!(wide, ImportError::BadValue { ref message, .. } if message == "unsupported width 64"),
        "{wide}"
    );
    let widest = from_mcnl(&mcnl.replace(header, "design fuzz_sample 63 2 2")).unwrap();
    assert_eq!(widest.width(), 63);

    let vhdl = to_vhdl(&nl);
    assert!(vhdl.contains("bit_vector(7 downto 0)"));
    let wide =
        from_vhdl(&vhdl.replace("bit_vector(7 downto 0)", "bit_vector(63 downto 0)")).unwrap_err();
    assert!(
        matches!(wide, ImportError::BadValue { ref message, .. } if message == "unsupported width 64"),
        "{wide}"
    );
    let widest =
        from_vhdl(&vhdl.replace("bit_vector(7 downto 0)", "bit_vector(62 downto 0)")).unwrap();
    assert_eq!(widest.width(), 63);
}

/// Error messages locate the offending line for every variant — they are
/// what `mcpm retrofit --file` prints verbatim.
#[test]
fn errors_render_line_located_messages() {
    let cases = [
        "design d 8 1 1\nwhat is this\n",
        "design d 8 1 1\nalu f (+) ghost ghost\n",
        "design d 8 1 1\ninput a\ninput a\n",
        "design d 8 1 1\ninput a\nlatch r 0 a\n",
    ];
    for text in cases {
        let msg = from_mcnl(text).unwrap_err().to_string();
        assert!(msg.contains("line "), "no location in `{msg}`");
    }
}
