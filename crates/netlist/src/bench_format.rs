//! ISCAS89 `.bench` format reader and writer.
//!
//! The dialect accepted is the common one used by the ISCAS85/89
//! benchmark distributions:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G10 = NAND(G0, G1)
//! G11 = DFF(G10)
//! G12 = NOT(G11)
//! ```
//!
//! Parsing produces a [`RawCircuit`]; real ISCAS89 netlists can be
//! dropped into the flow unchanged (the repository ships structurally
//! equivalent generated stand-ins because the originals are not
//! redistributable here — see DESIGN.md).

use std::fmt::Write as _;

use crate::error::CircuitError;
use crate::raw::{RawCircuit, RawOp};

/// Parses `.bench` text into a raw circuit.
///
/// # Errors
/// [`CircuitError::Parse`] with a line number on syntax errors; the
/// result is additionally [`RawCircuit::validate`]d.
pub fn parse_bench(name: &str, text: &str) -> Result<RawCircuit, CircuitError> {
    let mut c = RawCircuit::new(name);
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let perr = |message: String| CircuitError::Parse { line: lineno, message };

        if let Some(rest) = strip_call(line, "INPUT") {
            c.add_input(rest.trim());
            continue;
        }
        if let Some(rest) = strip_call(line, "OUTPUT") {
            c.add_output(rest.trim());
            continue;
        }
        // Assignment form: `name = OP(args)`.
        let (lhs, rhs) = line
            .split_once('=')
            .ok_or_else(|| perr(format!("expected assignment, got '{line}'")))?;
        let out_name = lhs.trim();
        if out_name.is_empty() {
            return Err(perr("empty assignment target".to_string()));
        }
        let rhs = rhs.trim();
        let open = rhs.find('(').ok_or_else(|| perr(format!("expected OP(...), got '{rhs}'")))?;
        if !rhs.ends_with(')') {
            return Err(perr(format!("missing closing parenthesis in '{rhs}'")));
        }
        let op_name = rhs[..open].trim();
        let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if args.is_empty() {
            return Err(perr(format!("operator '{op_name}' has no arguments")));
        }
        if op_name.eq_ignore_ascii_case("DFF") {
            if args.len() != 1 {
                return Err(perr("DFF takes exactly one argument".to_string()));
            }
            let d = c.signal(args[0]);
            let q = c.signal(out_name);
            c.add_dff(d, q);
            continue;
        }
        let op = RawOp::from_keyword(op_name)
            .ok_or_else(|| perr(format!("unknown operator '{op_name}'")))?;
        let inputs: Vec<_> = args.iter().map(|a| c.signal(a)).collect();
        let out = c.signal(out_name);
        c.add_gate(op, &inputs, out);
    }
    c.validate()?;
    Ok(c)
}

/// The argument text of `KEYWORD(args)` (keyword matched ASCII
/// case-insensitively), or `None` if `line` is not such a call. The
/// keyword is compared through `get`, so a multi-byte character that
/// straddles the keyword's length is a mismatch, not a panic.
fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    if !line.get(..keyword.len())?.eq_ignore_ascii_case(keyword) {
        return None;
    }
    let rest = line[keyword.len()..].trim_start();
    rest.strip_prefix('(')?.trim_end().strip_suffix(')')
}

/// Serializes a raw circuit back to `.bench` text.
pub fn write_bench(c: &RawCircuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", c.name);
    let _ = writeln!(
        out,
        "# {} inputs, {} outputs, {} DFFs, {} gates",
        c.inputs.len(),
        c.outputs.len(),
        c.dffs.len(),
        c.gate_count()
    );
    for &i in &c.inputs {
        let _ = writeln!(out, "INPUT({})", c.signal_name(i));
    }
    for &o in &c.outputs {
        let _ = writeln!(out, "OUTPUT({})", c.signal_name(o));
    }
    for &(d, q) in &c.dffs {
        let _ = writeln!(out, "{} = DFF({})", c.signal_name(q), c.signal_name(d));
    }
    for g in &c.gates {
        let args: Vec<&str> = g.inputs.iter().map(|&s| c.signal_name(s)).collect();
        let _ =
            writeln!(out, "{} = {}({})", c.signal_name(g.output), g.op.keyword(), args.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# tiny sequential sample
INPUT(a)
INPUT(b)
OUTPUT(y)
s0 = DFF(n1)
n1 = NAND(a, b)
n2 = NOT(s0)
y = OR(n2, a)
";

    #[test]
    fn parses_the_sample() {
        let c = parse_bench("tiny", SAMPLE).unwrap();
        assert_eq!(c.inputs.len(), 2);
        assert_eq!(c.outputs.len(), 1);
        assert_eq!(c.dffs.len(), 1);
        assert_eq!(c.gate_count(), 3);
    }

    #[test]
    fn round_trips_through_writer() {
        let c = parse_bench("tiny", SAMPLE).unwrap();
        let text = write_bench(&c);
        let c2 = parse_bench("tiny", &text).unwrap();
        assert_eq!(c.inputs.len(), c2.inputs.len());
        assert_eq!(c.outputs.len(), c2.outputs.len());
        assert_eq!(c.dffs.len(), c2.dffs.len());
        assert_eq!(c.gate_count(), c2.gate_count());
        // Gate structure identical up to signal renumbering: compare by
        // names.
        for (g1, g2) in c.gates.iter().zip(&c2.gates) {
            assert_eq!(g1.op, g2.op);
            assert_eq!(c.signal_name(g1.output), c2.signal_name(g2.output));
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let c = parse_bench("t", "# hello\n\nINPUT(x)\n  # mid\nOUTPUT(x)\n").unwrap();
        assert_eq!(c.inputs.len(), 1);
    }

    #[test]
    fn case_insensitive_keywords() {
        let c = parse_bench("t", "input(a)\noutput(y)\ny = nand(a, a)\n").unwrap();
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn multibyte_characters_across_a_keyword_length_parse() {
        // 'é' is two bytes: at bytes 4-5 it straddles the length of
        // "INPUT", at bytes 5-6 the length of "OUTPUT".
        let text = "INPUT(a)\nOUTPUT(abcdé)\nOUTPUT(abcdeé)\nabcdé = NOT(a)\nabcdeé = NOT(a)\n";
        let c = parse_bench("t", text).unwrap();
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.outputs.len(), 2);
        // The same line without its input is a structured error.
        assert!(parse_bench("t", "abcdé = NOT(a)\n").is_err());
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse_bench("t", "INPUT(a)\nfoo bar\n").unwrap_err();
        match err {
            CircuitError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn unknown_op_rejected() {
        let err = parse_bench("t", "INPUT(a)\ny = MAJ(a, a, a)\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { .. }));
    }

    #[test]
    fn dff_arity_enforced() {
        let err = parse_bench("t", "INPUT(a)\nq = DFF(a, a)\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { .. }));
    }
}
