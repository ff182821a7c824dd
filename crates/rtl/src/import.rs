//! Structural importers: the inverse of [`export::to_vhdl`] plus a
//! minimal external netlist format (`.mcnl`), feeding the retrofit flow
//! in `mc-core`.
//!
//! [`from_vhdl`] parses exactly what [`export::to_vhdl`] emits — paths
//! and labels ride in the trailing comments — and replays the component
//! stream through the [`NetlistBuilder`] in the original order, so
//! re-exporting an imported netlist reproduces the input byte for byte
//! (the golden round-trip tests enforce this). [`from_mcnl`] accepts a
//! small line-oriented format for designs produced outside this
//! workspace.
//!
//! Both importers are total: any input, however mangled, yields either a
//! netlist or an [`ImportError`] — never a panic (the fuzz tests drive
//! thousands of mutated inputs through them).
//!
//! [`export::to_vhdl`]: crate::export::to_vhdl

use std::collections::BTreeMap;
use std::fmt;

use mc_clocks::{ClockScheme, PhaseId};
use mc_dfg::{FunctionSet, Op, ALL_OPS};
use mc_tech::MemKind;

use crate::component::{AluId, CompId, MemId, MuxId, NetId};
use crate::netlist::{Netlist, NetlistBuilder, NetlistError};
use crate::path::Path;

/// Errors detected while importing a structural netlist. Line numbers are
/// 1-based; line 0 marks file-level problems (e.g. a missing section).
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// A line does not match the grammar.
    Syntax {
        /// 1-based source line (0 = whole file).
        line: usize,
        /// What was expected.
        message: String,
    },
    /// A reference names a signal or cell that does not exist.
    UnknownName {
        /// 1-based source line.
        line: usize,
        /// The unresolved name.
        name: String,
    },
    /// A name is defined twice.
    Duplicate {
        /// 1-based source line.
        line: usize,
        /// The re-defined name.
        name: String,
    },
    /// A field holds an out-of-range or unparsable value.
    BadValue {
        /// 1-based source line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file's recorded identifiers do not replay: a component id,
    /// path or net name disagrees with what the builder derives.
    SignalMismatch {
        /// 1-based source line.
        line: usize,
        /// The identifier recorded in the file.
        expected: String,
        /// The identifier the builder derived.
        found: String,
    },
    /// The parsed netlist failed structural validation.
    Netlist(NetlistError),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ImportError::UnknownName { line, name } => {
                write!(f, "line {line}: unknown name `{name}`")
            }
            ImportError::Duplicate { line, name } => {
                write!(f, "line {line}: duplicate name `{name}`")
            }
            ImportError::BadValue { line, message } => write!(f, "line {line}: {message}"),
            ImportError::SignalMismatch {
                line,
                expected,
                found,
            } => write!(
                f,
                "line {line}: recorded `{expected}` does not replay (derived `{found}`)"
            ),
            ImportError::Netlist(e) => write!(f, "imported netlist invalid: {e}"),
        }
    }
}

impl std::error::Error for ImportError {}

impl From<NetlistError> for ImportError {
    fn from(e: NetlistError) -> Self {
        ImportError::Netlist(e)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ImportError {
    ImportError::Syntax {
        line,
        message: message.into(),
    }
}

fn bad(line: usize, message: impl Into<String>) -> ImportError {
    ImportError::BadValue {
        line,
        message: message.into(),
    }
}

fn op_from_symbol(ch: char) -> Option<Op> {
    ALL_OPS.into_iter().find(|op| op.symbol() == ch)
}

fn parse_fs(line: usize, text: &str) -> Result<FunctionSet, ImportError> {
    let inner = text
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| bad(line, format!("function set `{text}` is not parenthesised")))?;
    let mut ops = Vec::new();
    for ch in inner.chars() {
        ops.push(op_from_symbol(ch).ok_or_else(|| bad(line, format!("unknown operation `{ch}`")))?);
    }
    Ok(FunctionSet::from_ops(ops))
}

fn parse_phase(line: usize, text: &str) -> Result<PhaseId, ImportError> {
    let k: u32 = text
        .strip_prefix("CLK")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(line, format!("bad clock name `{text}`")))?;
    if k == 0 {
        return Err(bad(line, "clock phases are 1-based"));
    }
    Ok(PhaseId::new(k))
}

/// Sets the builder scope to the parent of `path`.
fn rescope(nb: &mut NetlistBuilder, current: &mut Vec<String>, path: &Path) {
    let segments: Vec<&str> = path.segments().collect();
    let parent = &segments[..segments.len() - 1];
    while current.len() > parent.len() || !current.iter().zip(parent.iter()).all(|(a, b)| a == b) {
        nb.pop_scope();
        current.pop();
    }
    for seg in &parent[current.len()..] {
        nb.push_scope(seg);
        current.push((*seg).to_owned());
    }
}

/// Splits `name => value` port-map arguments.
fn port_args(s: &str) -> Option<Vec<(&str, &str)>> {
    let mut out = Vec::new();
    for part in s.split(", ") {
        out.push(part.split_once(" => ")?);
    }
    Some(out)
}

/// The bracketed list following `key[` in `s`, e.g. `bracket(s, "load")`.
fn bracket<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let start = s.find(&format!("{key}["))? + key.len() + 1;
    let end = s[start..].find(']')? + start;
    Some(&s[start..end])
}

/// Shared per-import state for the VHDL reader.
struct VhdlReader {
    nb: NetlistBuilder,
    scope: Vec<String>,
    /// Net name → id, as assigned by the builder while replaying.
    nets: BTreeMap<String, NetId>,
    mem_ids: BTreeMap<usize, MemId>,
    alu_ids: BTreeMap<usize, AluId>,
    mux_ids: BTreeMap<usize, MuxId>,
    /// Deferred memory data inputs: `(mem, net name, line)`.
    pending_mem: Vec<(MemId, String, usize)>,
    /// Components replayed so far (the next `cN` must have `N == count`).
    count: usize,
}

impl VhdlReader {
    fn resolve(&self, line: usize, name: &str) -> Result<NetId, ImportError> {
        self.nets
            .get(name)
            .copied()
            .ok_or_else(|| ImportError::UnknownName {
                line,
                name: name.to_owned(),
            })
    }

    /// Records the freshly built component's output net under `name`,
    /// verifying it matches the name the builder generated.
    fn bind_net(&mut self, line: usize, name: &str, net: NetId) -> Result<(), ImportError> {
        let derived = self.nb.net_name(net);
        if derived != name {
            return Err(ImportError::SignalMismatch {
                line,
                expected: name.to_owned(),
                found: derived.to_owned(),
            });
        }
        if self.nets.insert(name.to_owned(), net).is_some() {
            return Err(ImportError::Duplicate {
                line,
                name: name.to_owned(),
            });
        }
        Ok(())
    }

    /// Verifies the replayed component landed on the recorded path.
    fn check_path(&self, line: usize, c: CompId, path: &Path) -> Result<(), ImportError> {
        let derived = self.nb.path_of(c);
        if derived != path {
            return Err(ImportError::SignalMismatch {
                line,
                expected: path.to_string(),
                found: derived.to_string(),
            });
        }
        Ok(())
    }
}

/// Parses the text produced by [`export::to_vhdl`] back into a
/// [`Netlist`].
///
/// The importer replays the component stream in file order through the
/// builder and cross-checks every identifier the file records (component
/// ids, paths, net names) against what the replay derives, so a
/// successful import is guaranteed to re-export byte-identically.
///
/// # Errors
///
/// Returns an [`ImportError`] describing the first problem found; the
/// importer never panics, whatever the input.
///
/// [`export::to_vhdl`]: crate::export::to_vhdl
pub fn from_vhdl(text: &str) -> Result<Netlist, ImportError> {
    let lines: Vec<&str> = text.lines().collect();

    // --- Pre-scan: entity name, clock count, width, controller steps. ---
    let mut name: Option<String> = None;
    for (i, l) in lines.iter().enumerate() {
        let t = l.trim();
        if let Some(rest) = t.strip_prefix("entity ") {
            match rest.strip_suffix(" is") {
                Some(n) if !n.trim().is_empty() => {
                    name = Some(n.trim().to_owned());
                    break;
                }
                _ => return Err(syntax(i + 1, "malformed entity line")),
            }
        }
    }
    let name = name.ok_or_else(|| syntax(0, "no `entity` declaration"))?;

    let clocks = lines
        .iter()
        .filter(|l| {
            let t = l.trim();
            t.starts_with("CLK") && t.ends_with(" : in bit;")
        })
        .count() as u32;
    let scheme = ClockScheme::new(clocks).map_err(|e| bad(0, format!("bad clock scheme: {e}")))?;

    let mut width: Option<u8> = None;
    for (i, l) in lines.iter().enumerate() {
        if let Some(pos) = l.find("bit_vector(") {
            let rest = &l[pos + "bit_vector(".len()..];
            let hi: u32 = rest
                .split_once(" downto")
                .and_then(|(h, _)| h.parse().ok())
                .ok_or_else(|| bad(i + 1, "malformed bit_vector range"))?;
            // Datapath masks are `(1 << width) - 1`, so 63 bits is the
            // widest a simulation can represent.
            if hi >= 63 {
                return Err(bad(i + 1, format!("unsupported width {}", hi + 1)));
            }
            width = Some(hi as u8 + 1);
            break;
        }
    }
    let width = width.ok_or_else(|| syntax(0, "no bit_vector port or signal"))?;

    let mut steps: Option<u32> = None;
    for (i, l) in lines.iter().enumerate() {
        if let Some(rest) = l.trim().strip_prefix("-- controller: ") {
            let n: u32 = rest
                .split_once(' ')
                .and_then(|(n, _)| n.parse().ok())
                .ok_or_else(|| bad(i + 1, "malformed controller summary"))?;
            if n == 0 {
                return Err(bad(i + 1, "controller needs at least one step"));
            }
            steps = Some(n);
            break;
        }
    }
    let steps = steps.ok_or_else(|| syntax(0, "no `-- controller:` summary"))?;

    let mut r = VhdlReader {
        nb: NetlistBuilder::new(&name, width, scheme, steps),
        scope: Vec::new(),
        nets: BTreeMap::new(),
        mem_ids: BTreeMap::new(),
        alu_ids: BTreeMap::new(),
        mux_ids: BTreeMap::new(),
        pending_mem: Vec::new(),
        count: 0,
    };

    // --- Architecture body + trailing controller words. ---
    let mut in_body = false;
    let mut body_done = false;
    for (i, l) in lines.iter().enumerate() {
        let ln = i + 1;
        let t = l.trim_end();
        let tt = t.trim();
        if !in_body && !body_done {
            if tt == "begin" {
                in_body = true;
            }
            continue;
        }
        if in_body {
            if tt == "end structural;" {
                in_body = false;
                body_done = true;
                continue;
            }
            if tt.is_empty() {
                continue;
            }
            parse_body_line(&mut r, ln, tt, steps)?;
            continue;
        }
        // After the body: controller words.
        if let Some(rest) = tt.strip_prefix("-- ").map(str::trim_start) {
            if let Some(word) = rest.strip_prefix('T') {
                parse_controller_line(&mut r, ln, word, steps)?;
            }
        }
    }
    if !body_done {
        return Err(syntax(0, "no `begin` .. `end structural;` body"));
    }

    for (mem, dname, ln) in std::mem::take(&mut r.pending_mem) {
        let net = r.resolve(ln, &dname)?;
        r.nb.try_set_mem_input(mem.comp(), net)
            .expect("importer only defers memory ids");
    }
    Ok(r.nb.finish()?)
}

/// One architecture-body line: a component instantiation, a constant or
/// input assignment, or an output assignment.
fn parse_body_line(
    r: &mut VhdlReader,
    ln: usize,
    tt: &str,
    _steps: u32,
) -> Result<(), ImportError> {
    let (code, comment) = match tt.rsplit_once(" -- ") {
        Some((c, tail)) => (c.trim_end(), Some(tail)),
        None => (tt, None),
    };

    if let Some((cname, rest)) = code.split_once(" : ") {
        // Component instantiation. The recorded id must replay.
        let expected = format!("c{}", r.count);
        if cname != expected {
            return Err(ImportError::SignalMismatch {
                line: ln,
                expected: cname.to_owned(),
                found: expected,
            });
        }
        let comment = comment.ok_or_else(|| syntax(ln, "component line lacks a path comment"))?;
        let (ptext, rest_c) = comment
            .split_once(' ')
            .ok_or_else(|| syntax(ln, "component comment lacks a label"))?;
        let label = rest_c
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| syntax(ln, "component label is not bracketed"))?;
        let path = Path::parse(ptext).map_err(|e| bad(ln, format!("bad path: {e}")))?;

        let body = rest
            .strip_suffix(");")
            .ok_or_else(|| syntax(ln, "instantiation does not end with `);`"))?;
        let pm = body
            .find("port map (")
            .ok_or_else(|| syntax(ln, "instantiation lacks a port map"))?;
        let args = port_args(&body[pm + "port map (".len()..])
            .ok_or_else(|| syntax(ln, "malformed port map"))?;
        let arg = |key: &str| -> Result<&str, ImportError> {
            args.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .ok_or_else(|| syntax(ln, format!("port map lacks `{key}`")))
        };

        rescope(&mut r.nb, &mut r.scope, &path);
        if let Some(gm) = body.strip_prefix("alu generic map (fns => \"") {
            let fstext = gm
                .split_once('"')
                .map(|(fs, _)| fs)
                .ok_or_else(|| syntax(ln, "unterminated function set"))?;
            let fs = parse_fs(ln, fstext)?;
            let a = r.resolve(ln, arg("a")?)?;
            let b = r.resolve(ln, arg("b")?)?;
            let (alu, net) = r.nb.add_alu(fs, a, b, label);
            r.check_path(ln, alu.comp(), &path)?;
            r.bind_net(ln, arg("y")?, net)?;
            r.alu_ids.insert(r.count, alu);
        } else if body.starts_with("latch_bank ") || body.starts_with("dff_bank ") {
            let kind = if body.starts_with("latch_bank ") {
                MemKind::Latch
            } else {
                MemKind::Dff
            };
            let phase = parse_phase(ln, arg("clk")?)?;
            let (mem, net) = r.nb.add_mem(kind, phase, label);
            r.check_path(ln, mem.comp(), &path)?;
            r.bind_net(ln, arg("q")?, net)?;
            r.pending_mem.push((mem, arg("d")?.to_owned(), ln));
            r.mem_ids.insert(r.count, mem);
        } else if body.starts_with("mux") {
            let mut inputs = Vec::new();
            for (k, v) in &args {
                if let Some(j) = k.strip_prefix('i') {
                    if j.parse::<usize>().ok() != Some(inputs.len()) {
                        return Err(syntax(ln, "mux inputs are not consecutive"));
                    }
                    inputs.push(r.resolve(ln, v)?);
                }
            }
            let (m, net) = r.nb.add_mux(inputs, label);
            r.check_path(ln, m.comp(), &path)?;
            r.bind_net(ln, arg("y")?, net)?;
            r.mux_ids.insert(r.count, m);
        } else {
            return Err(syntax(ln, "unknown component kind"));
        }
        r.count += 1;
        return Ok(());
    }

    if let Some((lhs, rhs)) = code.split_once(" <= ") {
        let rhs = rhs
            .strip_suffix(';')
            .ok_or_else(|| syntax(ln, "assignment does not end with `;`"))?;
        match comment {
            Some(ptext) => {
                // Constant or primary-input assignment.
                let path = Path::parse(ptext).map_err(|e| bad(ln, format!("bad path: {e}")))?;
                rescope(&mut r.nb, &mut r.scope, &path);
                let (id, net) =
                    if let Some(bits) = rhs.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
                        if bits.is_empty() || !bits.chars().all(|c| c == '0' || c == '1') {
                            return Err(bad(ln, format!("bad constant `{rhs}`")));
                        }
                        let value = u64::from_str_radix(bits, 2)
                            .map_err(|e| bad(ln, format!("bad constant `{rhs}`: {e}")))?;
                        r.nb.add_const(value)
                    } else {
                        r.nb.add_input(rhs)
                    };
                r.check_path(ln, id, &path)?;
                r.bind_net(ln, lhs, net)?;
                r.count += 1;
            }
            None => {
                // Primary-output assignment.
                let net = r.resolve(ln, rhs)?;
                r.nb.mark_output(lhs, net);
            }
        }
        return Ok(());
    }

    Err(syntax(ln, "unrecognised architecture-body line"))
}

/// One `T{t}: load[..] fn[..] sel[..]` controller comment.
fn parse_controller_line(
    r: &mut VhdlReader,
    ln: usize,
    word: &str,
    steps: u32,
) -> Result<(), ImportError> {
    let (tstr, rest) = word
        .split_once(':')
        .ok_or_else(|| syntax(ln, "malformed controller word"))?;
    let t: u32 = tstr
        .parse()
        .map_err(|e| bad(ln, format!("bad step number `{tstr}`: {e}")))?;
    if t == 0 || t > steps {
        return Err(bad(ln, format!("step {t} outside 1..={steps}")));
    }
    let comp_index = |tok: &str| -> Result<usize, ImportError> {
        tok.strip_prefix('c')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(ln, format!("bad component reference `{tok}`")))
    };
    let loads = bracket(rest, "load").ok_or_else(|| syntax(ln, "missing load list"))?;
    let fns = bracket(rest, "fn").ok_or_else(|| syntax(ln, "missing fn list"))?;
    let sels = bracket(rest, "sel").ok_or_else(|| syntax(ln, "missing sel list"))?;
    for tok in loads.split(',').filter(|s| !s.is_empty()) {
        let idx = comp_index(tok)?;
        let mem = r
            .mem_ids
            .get(&idx)
            .ok_or_else(|| bad(ln, format!("load target {tok} is not a memory")))?;
        r.nb.controller_mut().word_mut(t).mem_load.insert(*mem);
    }
    for tok in fns.split(',').filter(|s| !s.is_empty()) {
        let (c, sym) = tok
            .split_once(':')
            .ok_or_else(|| syntax(ln, format!("malformed fn entry `{tok}`")))?;
        let idx = comp_index(c)?;
        let alu = *r
            .alu_ids
            .get(&idx)
            .ok_or_else(|| bad(ln, format!("fn target {c} is not an ALU")))?;
        let mut chars = sym.chars();
        let op = match (chars.next().and_then(op_from_symbol), chars.next()) {
            (Some(op), None) => op,
            _ => return Err(bad(ln, format!("unknown operation `{sym}`"))),
        };
        r.nb.controller_mut().word_mut(t).alu_fn.insert(alu, op);
    }
    for tok in sels.split(',').filter(|s| !s.is_empty()) {
        let (c, sel) = tok
            .split_once('=')
            .ok_or_else(|| syntax(ln, format!("malformed sel entry `{tok}`")))?;
        let idx = comp_index(c)?;
        let m = *r
            .mux_ids
            .get(&idx)
            .ok_or_else(|| bad(ln, format!("sel target {c} is not a mux")))?;
        let s: usize = sel
            .parse()
            .map_err(|e| bad(ln, format!("bad select `{sel}`: {e}")))?;
        r.nb.controller_mut().word_mut(t).mux_sel.insert(m, s);
    }
    Ok(())
}

/// One cell reference in the `.mcnl` reader.
#[derive(Clone, Copy)]
enum McnlRef {
    Mem(MemId),
    Alu(AluId),
    Mux(MuxId),
    Plain,
}

/// Parses the minimal external `.mcnl` structural format.
///
/// The format is line-oriented; `#` starts a comment and blank lines are
/// skipped. The first significant line is
/// `design NAME WIDTH CLOCKS STEPS`, followed by cells (referenced by
/// name; memory data inputs may be forward references), outputs and
/// control words:
///
/// ```text
/// design acc 8 2 2
/// input x
/// const one 1
/// latch r 1 sum      # name phase input
/// dff   s 2 r
/// alu  sum (+-) x r  # name (ops) a b
/// mux  m x r         # name inputs...
/// output y r
/// ctrl 1 load=r fn=sum:+ sel=m:0
/// ```
///
/// # Errors
///
/// Returns an [`ImportError`] describing the first problem found; the
/// importer never panics, whatever the input.
pub fn from_mcnl(text: &str) -> Result<Netlist, ImportError> {
    let mut significant = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty());

    let (dln, design) = significant.next().ok_or_else(|| syntax(0, "empty input"))?;
    let d: Vec<&str> = design.split_whitespace().collect();
    let (name, width, clocks, steps) = match d.as_slice() {
        ["design", name, w, c, s] => {
            let w: u32 = w
                .parse()
                .map_err(|e| bad(dln, format!("bad width `{w}`: {e}")))?;
            // 63 bits is the widest datapath mask, as in `from_vhdl`.
            if !(1..=63).contains(&w) {
                return Err(bad(dln, format!("unsupported width {w}")));
            }
            let c: u32 = c
                .parse()
                .map_err(|e| bad(dln, format!("bad clock count `{c}`: {e}")))?;
            let s: u32 = s
                .parse()
                .map_err(|e| bad(dln, format!("bad step count `{s}`: {e}")))?;
            if s == 0 {
                return Err(bad(dln, "a design needs at least one control step"));
            }
            (*name, w as u8, c, s)
        }
        _ => return Err(syntax(dln, "expected `design NAME WIDTH CLOCKS STEPS`")),
    };
    let scheme =
        ClockScheme::new(clocks).map_err(|e| bad(dln, format!("bad clock scheme: {e}")))?;
    let mut nb = NetlistBuilder::new(name, width, scheme, steps);

    let mut nets: BTreeMap<String, NetId> = BTreeMap::new();
    let mut refs: BTreeMap<String, McnlRef> = BTreeMap::new();
    let mut pending_mem: Vec<(MemId, String, usize)> = Vec::new();
    let mut pending_out: Vec<(String, String, usize)> = Vec::new();
    let mut ctrl_lines: Vec<(usize, Vec<String>)> = Vec::new();

    let define = |refs: &mut BTreeMap<String, McnlRef>,
                  ln: usize,
                  name: &str,
                  r: McnlRef|
     -> Result<(), ImportError> {
        if refs.insert(name.to_owned(), r).is_some() {
            return Err(ImportError::Duplicate {
                line: ln,
                name: name.to_owned(),
            });
        }
        Ok(())
    };
    let resolve = |nets: &BTreeMap<String, NetId>, ln: usize, n: &str| {
        nets.get(n)
            .copied()
            .ok_or_else(|| ImportError::UnknownName {
                line: ln,
                name: n.to_owned(),
            })
    };

    for (ln, line) in significant {
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["input", n] => {
                define(&mut refs, ln, n, McnlRef::Plain)?;
                let (_, net) = nb.add_input(n);
                nets.insert((*n).to_owned(), net);
            }
            ["const", n, v] => {
                define(&mut refs, ln, n, McnlRef::Plain)?;
                let value: u64 = v
                    .parse()
                    .map_err(|e| bad(ln, format!("bad constant `{v}`: {e}")))?;
                let (_, net) = nb.add_const(value);
                nets.insert((*n).to_owned(), net);
            }
            [kind @ ("latch" | "dff"), n, p, d] => {
                define(&mut refs, ln, n, McnlRef::Plain)?;
                let k: u32 = p
                    .parse()
                    .map_err(|e| bad(ln, format!("bad phase `{p}`: {e}")))?;
                if k == 0 {
                    return Err(bad(ln, "clock phases are 1-based"));
                }
                let mk = if *kind == "latch" {
                    MemKind::Latch
                } else {
                    MemKind::Dff
                };
                let (mem, net) = nb.add_mem(mk, PhaseId::new(k), n);
                refs.insert((*n).to_owned(), McnlRef::Mem(mem));
                nets.insert((*n).to_owned(), net);
                pending_mem.push((mem, (*d).to_owned(), ln));
            }
            ["alu", n, fs, a, b] => {
                define(&mut refs, ln, n, McnlRef::Plain)?;
                let fs = parse_fs(ln, fs)?;
                let a = resolve(&nets, ln, a)?;
                let b = resolve(&nets, ln, b)?;
                let (alu, net) = nb.add_alu(fs, a, b, n);
                refs.insert((*n).to_owned(), McnlRef::Alu(alu));
                nets.insert((*n).to_owned(), net);
            }
            ["mux", n, ins @ ..] if !ins.is_empty() => {
                define(&mut refs, ln, n, McnlRef::Plain)?;
                let inputs = ins
                    .iter()
                    .map(|i| resolve(&nets, ln, i))
                    .collect::<Result<Vec<_>, _>>()?;
                let (m, net) = nb.add_mux(inputs, n);
                refs.insert((*n).to_owned(), McnlRef::Mux(m));
                nets.insert((*n).to_owned(), net);
            }
            ["output", port, n] => {
                pending_out.push(((*port).to_owned(), (*n).to_owned(), ln));
            }
            ["ctrl", t, rest @ ..] => {
                let mut toks = vec![(*t).to_owned()];
                toks.extend(rest.iter().map(|s| (*s).to_owned()));
                ctrl_lines.push((ln, toks));
            }
            _ => return Err(syntax(ln, format!("unrecognised line `{line}`"))),
        }
    }

    for (mem, d, ln) in pending_mem {
        let net = resolve(&nets, ln, &d)?;
        nb.try_set_mem_input(mem.comp(), net)
            .expect("mcnl reader only defers memory ids");
    }
    for (port, n, ln) in pending_out {
        let net = resolve(&nets, ln, &n)?;
        nb.mark_output(&port, net);
    }
    for (ln, toks) in ctrl_lines {
        let t: u32 = toks[0]
            .parse()
            .map_err(|e| bad(ln, format!("bad step number `{}`: {e}", toks[0])))?;
        if t == 0 || t > steps {
            return Err(bad(ln, format!("step {t} outside 1..={steps}")));
        }
        for tok in &toks[1..] {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| syntax(ln, format!("malformed control token `{tok}`")))?;
            match key {
                "load" => match refs.get(val) {
                    Some(McnlRef::Mem(m)) => {
                        nb.controller_mut().word_mut(t).mem_load.insert(*m);
                    }
                    Some(_) => return Err(bad(ln, format!("`{val}` is not a memory"))),
                    None => {
                        return Err(ImportError::UnknownName {
                            line: ln,
                            name: val.to_owned(),
                        })
                    }
                },
                "fn" => {
                    let (n, sym) = val
                        .split_once(':')
                        .ok_or_else(|| syntax(ln, format!("malformed fn token `{tok}`")))?;
                    let alu = match refs.get(n) {
                        Some(McnlRef::Alu(a)) => *a,
                        Some(_) => return Err(bad(ln, format!("`{n}` is not an ALU"))),
                        None => {
                            return Err(ImportError::UnknownName {
                                line: ln,
                                name: n.to_owned(),
                            })
                        }
                    };
                    let mut chars = sym.chars();
                    let op = match (chars.next().and_then(op_from_symbol), chars.next()) {
                        (Some(op), None) => op,
                        _ => return Err(bad(ln, format!("unknown operation `{sym}`"))),
                    };
                    nb.controller_mut().word_mut(t).alu_fn.insert(alu, op);
                }
                "sel" => {
                    let (n, sel) = val
                        .split_once(':')
                        .ok_or_else(|| syntax(ln, format!("malformed sel token `{tok}`")))?;
                    let m = match refs.get(n) {
                        Some(McnlRef::Mux(m)) => *m,
                        Some(_) => return Err(bad(ln, format!("`{n}` is not a mux"))),
                        None => {
                            return Err(ImportError::UnknownName {
                                line: ln,
                                name: n.to_owned(),
                            })
                        }
                    };
                    let s: usize = sel
                        .parse()
                        .map_err(|e| bad(ln, format!("bad select `{sel}`: {e}")))?;
                    nb.controller_mut().word_mut(t).mux_sel.insert(m, s);
                }
                _ => return Err(syntax(ln, format!("unknown control key `{key}`"))),
            }
        }
    }
    Ok(nb.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_vhdl;
    use crate::netlist::NetlistBuilder;
    use mc_dfg::Op;

    fn sample() -> Netlist {
        let scheme = ClockScheme::new(2).unwrap();
        let mut nb = NetlistBuilder::new("sample", 8, scheme, 2);
        nb.push_scope("io");
        let (_, a) = nb.add_input("a");
        let (_, b) = nb.add_input("b");
        nb.pop_scope();
        let (_, k) = nb.add_const(5);
        nb.push_scope("regs");
        let (r1, r1out) = nb.add_mem(MemKind::Latch, PhaseId::new(1), "x/u");
        let (r2, r2out) = nb.add_mem(MemKind::Dff, PhaseId::new(2), "x_u");
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

    #[test]
    fn vhdl_round_trip_is_byte_identical() {
        let nl = sample();
        let text = to_vhdl(&nl);
        let back = from_vhdl(&text).unwrap();
        assert_eq!(to_vhdl(&back), text);
        assert_eq!(back.stats(), nl.stats());
        assert_eq!(back.controller(), nl.controller());
        // Paths survive the trip: the two registers sanitize to the same
        // leaf and keep their uniquified paths and original labels.
        let p = Path::parse("regs.x_u").unwrap();
        assert_eq!(
            back.component(back.find(&p).unwrap()).label(),
            "x/u",
            "labels survive too"
        );
        let p2 = Path::parse("regs.x_u_2").unwrap();
        assert_eq!(back.component(back.find(&p2).unwrap()).label(), "x_u");
    }

    #[test]
    fn mcnl_parses_a_small_design() {
        let text = "\
# accumulator
design acc 8 1 1
input x
latch r 1 sum
alu sum (+) x r
output y r
ctrl 1 load=r fn=sum:+
";
        let nl = from_mcnl(text).unwrap();
        assert_eq!(nl.name(), "acc");
        assert_eq!(nl.width(), 8);
        assert_eq!(nl.stats().mem_cells, 1);
        assert!(nl
            .controller()
            .word(1)
            .loads(nl.mems().next().unwrap().comp()));
    }

    #[test]
    fn vhdl_error_variants_have_deterministic_lines() {
        // UnknownName: output references a missing net.
        let text = to_vhdl(&sample());
        let broken = text.replace("y <= mem_x_u;", "y <= mem_ghost;");
        assert!(matches!(
            from_vhdl(&broken).unwrap_err(),
            ImportError::UnknownName { .. }
        ));
        // Syntax: garbage in the body.
        let broken = text.replace("  y <= mem_x_u;", "  what is this");
        assert!(matches!(
            from_vhdl(&broken).unwrap_err(),
            ImportError::Syntax { .. }
        ));
        // BadValue: constant with non-binary digits.
        let broken = text.replace("<= \"00000101\";", "<= \"0000z101\";");
        assert!(matches!(
            from_vhdl(&broken).unwrap_err(),
            ImportError::BadValue { .. }
        ));
        // SignalMismatch: the recorded leaf disagrees with the replayed
        // derivation (`regs.zzz` recorded, `regs.x_u` derived from the
        // label).
        let broken = text.replace("-- regs.x_u [x/u]", "-- regs.zzz [x/u]");
        assert_ne!(broken, text, "mutation must hit the exported comment");
        assert!(matches!(
            from_vhdl(&broken).unwrap_err(),
            ImportError::SignalMismatch { .. }
        ));
    }

    #[test]
    fn mcnl_error_variants() {
        assert!(matches!(
            from_mcnl("").unwrap_err(),
            ImportError::Syntax { line: 0, .. }
        ));
        assert!(matches!(
            from_mcnl("design d 8 1 1\ninput a\ninput a\n").unwrap_err(),
            ImportError::Duplicate { line: 3, .. }
        ));
        assert!(matches!(
            from_mcnl("design d 8 1 1\nalu f (+) a a\n").unwrap_err(),
            ImportError::UnknownName { line: 2, .. }
        ));
        assert!(matches!(
            from_mcnl("design d 99 1 1\n").unwrap_err(),
            ImportError::BadValue { line: 1, .. }
        ));
        // Netlist: structurally invalid (mem never connected is impossible
        // here, but an out-of-range phase is).
        let err = from_mcnl("design d 8 1 1\ninput a\nlatch r 7 a\nctrl 1 load=r\n").unwrap_err();
        assert!(matches!(err, ImportError::Netlist(_)), "{err}");
        assert!(err.to_string().contains("invalid"));
    }
}
