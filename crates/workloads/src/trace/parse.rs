//! Dependency-free parser for the `hsc-trace v1` text format.
//!
//! Every rejection is a line-numbered [`TraceError`]; the parser never
//! panics on any input (the malformed-trace corpus under
//! `crates/workloads/tests/corpus/` holds it to that).

use hsc_mem::{Addr, AtomicKind};

use super::format::{
    FenceKind, StreamKind, TraceError, TraceOp, TraceProgram, TraceStream, MISMATCH_BASE,
    RESERVED_WORDS, TRACE_HEADER,
};

impl TraceProgram {
    /// Parses the text form of a trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the 1-based line of the first
    /// malformed construct: a missing or wrong header, an `init` after the
    /// first `stream`, an op outside any stream, an unknown directive or
    /// atomic kind, a missing or non-numeric operand, an unaligned or
    /// reserved address, a `fence` outside a `gpu` stream, an `atomic` or
    /// `fence` in a `dma` stream, `expect` in a `dma` stream, or more
    /// than [`RESERVED_WORDS`] streams.
    pub fn parse(text: &str) -> Result<TraceProgram, TraceError> {
        let mut program = TraceProgram::default();
        let mut seen_header = false;
        let mut current: Option<TraceStream> = None;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !seen_header {
                if line != TRACE_HEADER {
                    return Err(TraceError::new(
                        line_no,
                        format!("expected header {TRACE_HEADER:?}, found {line:?}"),
                    ));
                }
                seen_header = true;
                continue;
            }
            let mut tok = line.split_whitespace();
            let directive = tok.next().expect("non-empty line has a first token");
            match directive {
                "init" => {
                    if current.is_some() {
                        return Err(TraceError::new(
                            line_no,
                            "init must precede the first stream directive",
                        ));
                    }
                    let addr = parse_addr(line_no, tok.next())?;
                    let value = parse_value(line_no, tok.next(), "init value")?;
                    end_of_line(line_no, tok.next())?;
                    program.init.push((addr, value));
                }
                "stream" => {
                    let kind = match tok.next() {
                        Some("cpu") => StreamKind::Cpu,
                        Some("gpu") => StreamKind::Gpu,
                        Some("dma") => StreamKind::Dma,
                        Some(other) => {
                            return Err(TraceError::new(
                                line_no,
                                format!("unknown stream kind {other:?} (expected cpu|gpu|dma)"),
                            ))
                        }
                        None => {
                            return Err(TraceError::new(
                                line_no,
                                "stream requires a kind operand (cpu|gpu|dma)",
                            ))
                        }
                    };
                    end_of_line(line_no, tok.next())?;
                    if let Some(s) = current.take() {
                        program.streams.push(s);
                    }
                    if program.streams.len() as u64 >= RESERVED_WORDS {
                        return Err(TraceError::new(
                            line_no,
                            format!("too many streams (limit {RESERVED_WORDS})"),
                        ));
                    }
                    current = Some(TraceStream { kind, ops: Vec::new() });
                }
                "read" | "write" | "atomic" | "fence" => {
                    let Some(stream) = current.as_mut() else {
                        return Err(TraceError::new(
                            line_no,
                            format!("{directive} op before any stream directive"),
                        ));
                    };
                    let op = parse_op(line_no, stream.kind, directive, &mut tok)?;
                    end_of_line(line_no, tok.next())?;
                    stream.ops.push(op);
                }
                other => {
                    return Err(TraceError::new(
                        line_no,
                        format!(
                            "unknown directive {other:?} (expected init|stream|read|write|atomic|fence)"
                        ),
                    ));
                }
            }
        }
        if !seen_header {
            return Err(TraceError::new(
                text.lines().count().max(1),
                format!("empty trace: missing {TRACE_HEADER:?} header"),
            ));
        }
        if let Some(s) = current.take() {
            program.streams.push(s);
        }
        Ok(program)
    }
}

fn parse_op<'a>(
    line_no: usize,
    kind: StreamKind,
    directive: &str,
    tok: &mut impl Iterator<Item = &'a str>,
) -> Result<TraceOp, TraceError> {
    match directive {
        "read" => {
            let addr = parse_addr(line_no, tok.next())?;
            let expect = parse_expect(line_no, kind, tok)?;
            Ok(TraceOp::Read { addr, expect })
        }
        "write" => {
            let addr = parse_addr(line_no, tok.next())?;
            let value = parse_value(line_no, tok.next(), "write value")?;
            Ok(TraceOp::Write { addr, value })
        }
        "atomic" => {
            if kind == StreamKind::Dma {
                return Err(TraceError::new(
                    line_no,
                    "atomic is not valid in a dma stream (dma supports read/write only)",
                ));
            }
            let addr = parse_addr(line_no, tok.next())?;
            let kind_tok = tok.next().ok_or_else(|| {
                TraceError::new(
                    line_no,
                    "atomic requires a kind operand (add|exch|cas|max|min|and|or|xor)",
                )
            })?;
            let atomic = match kind_tok {
                "add" => AtomicKind::FetchAdd(parse_value(line_no, tok.next(), "add operand")?),
                "exch" => AtomicKind::Exchange(parse_value(line_no, tok.next(), "exch operand")?),
                "cas" => AtomicKind::CompareSwap {
                    expect: parse_value(line_no, tok.next(), "cas expected-value operand")?,
                    new: parse_value(line_no, tok.next(), "cas new-value operand")?,
                },
                "max" => AtomicKind::FetchMax(parse_value(line_no, tok.next(), "max operand")?),
                "min" => AtomicKind::FetchMin(parse_value(line_no, tok.next(), "min operand")?),
                "and" => AtomicKind::FetchAnd(parse_value(line_no, tok.next(), "and operand")?),
                "or" => AtomicKind::FetchOr(parse_value(line_no, tok.next(), "or operand")?),
                "xor" => AtomicKind::FetchXor(parse_value(line_no, tok.next(), "xor operand")?),
                other => {
                    return Err(TraceError::new(
                        line_no,
                        format!(
                        "unknown atomic kind {other:?} (expected add|exch|cas|max|min|and|or|xor)"
                    ),
                    ))
                }
            };
            let expect = parse_expect(line_no, kind, tok)?;
            Ok(TraceOp::Atomic { addr, kind: atomic, expect })
        }
        "fence" => {
            if kind != StreamKind::Gpu {
                return Err(TraceError::new(
                    line_no,
                    format!("fence is only valid in a gpu stream (this stream is {kind})"),
                ));
            }
            match tok.next() {
                Some("acquire") => Ok(TraceOp::Fence(FenceKind::Acquire)),
                Some("release") => Ok(TraceOp::Fence(FenceKind::Release)),
                Some(other) => Err(TraceError::new(
                    line_no,
                    format!("unknown fence kind {other:?} (expected acquire|release)"),
                )),
                None => {
                    Err(TraceError::new(line_no, "fence requires a kind operand (acquire|release)"))
                }
            }
        }
        _ => unreachable!("caller dispatches only op directives"),
    }
}

/// Parses the optional trailing `expect <v>` of a read/atomic.
fn parse_expect<'a>(
    line_no: usize,
    kind: StreamKind,
    tok: &mut impl Iterator<Item = &'a str>,
) -> Result<Option<u64>, TraceError> {
    match tok.next() {
        None => Ok(None),
        Some("expect") => {
            if kind == StreamKind::Dma {
                return Err(TraceError::new(
                    line_no,
                    "expect is not supported in dma streams (DMA read data is not replay-checked)",
                ));
            }
            Ok(Some(parse_value(line_no, tok.next(), "expect operand")?))
        }
        Some(other) => Err(TraceError::new(
            line_no,
            format!("unexpected trailing token {other:?} (expected end of line or expect <v>)"),
        )),
    }
}

fn parse_u64(raw: &str) -> Option<u64> {
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse::<u64>().ok()
    }
}

fn parse_value(line_no: usize, raw: Option<&str>, what: &str) -> Result<u64, TraceError> {
    let raw = raw.ok_or_else(|| TraceError::new(line_no, format!("missing {what}")))?;
    parse_u64(raw).ok_or_else(|| {
        TraceError::new(line_no, format!("{what} {raw:?} is not a u64 (decimal or 0x hex)"))
    })
}

fn parse_addr(line_no: usize, raw: Option<&str>) -> Result<Addr, TraceError> {
    let v = parse_value(line_no, raw, "address")?;
    if v % 8 != 0 {
        return Err(TraceError::new(line_no, format!("address 0x{v:x} is not 8-byte aligned")));
    }
    if (MISMATCH_BASE..MISMATCH_BASE + 8 * RESERVED_WORDS).contains(&v) {
        return Err(TraceError::new(
            line_no,
            format!(
                "address 0x{v:x} is inside the reserved mismatch-flag range [0x{MISMATCH_BASE:x}, 0x{:x})",
                MISMATCH_BASE + 8 * RESERVED_WORDS
            ),
        ));
    }
    Ok(Addr(v))
}

fn end_of_line(line_no: usize, extra: Option<&str>) -> Result<(), TraceError> {
    match extra {
        None => Ok(()),
        Some(tok) => Err(TraceError::new(line_no, format!("unexpected trailing token {tok:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<TraceProgram, TraceError> {
        TraceProgram::parse(text)
    }

    #[test]
    fn parses_the_full_vocabulary() {
        let text = "\
# a comment
hsc-trace v1

init 0x100 42
init 512 0xff
stream cpu
  read 0x100
  read 0x100 expect 42
  write 0x108 7
  atomic 0x110 add 1
  atomic 0x110 cas 1 9 expect 1
stream gpu
  fence acquire
  read 0x100
  atomic 0x118 exch 3
  atomic 0x118 max 4
  atomic 0x118 min 2
  atomic 0x118 and 0xf
  atomic 0x118 or 1
  atomic 0x118 xor 5
  fence release
stream dma
  read 0x2000
  write 0x2040 3
";
        let p = parse(text).expect("valid trace");
        assert_eq!(p.init, vec![(Addr(0x100), 42), (Addr(512), 0xff)]);
        assert_eq!(p.streams.len(), 3);
        assert_eq!(p.streams[0].kind, StreamKind::Cpu);
        assert_eq!(p.streams[0].ops.len(), 5);
        assert_eq!(p.streams[1].ops.len(), 9);
        assert_eq!(p.streams[0].ops[1], TraceOp::Read { addr: Addr(0x100), expect: Some(42) });
        assert_eq!(
            p.streams[2].ops,
            vec![
                TraceOp::Read { addr: Addr(0x2000), expect: None },
                TraceOp::Write { addr: Addr(0x2040), value: 3 },
            ]
        );
    }

    #[test]
    fn round_trips_canonically() {
        let text = "\
hsc-trace v1
init 0x100 42
stream cpu
read 0x100 expect 42
atomic 0x110 cas 1 9
stream gpu
fence release
";
        let p = parse(text).expect("valid");
        let canon = p.to_text();
        let p2 = parse(&canon).expect("canonical form re-parses");
        assert_eq!(p, p2);
        assert_eq!(canon, p2.to_text(), "re-serialization is byte-identical");
        assert_eq!(canon, text, "this input is already canonical");
    }

    /// Every malformed construct comes back with the right line number.
    #[test]
    fn errors_name_their_line() {
        let cases: &[(&str, usize, &str)] = &[
            ("", 1, "missing"),
            ("# only a comment\n", 1, "missing"),
            ("not-a-header\n", 1, "expected header"),
            ("hsc-trace v2\n", 1, "expected header"),
            ("hsc-trace v1\nstream cpu\ninit 0x100 1\n", 3, "init must precede"),
            ("hsc-trace v1\nread 0x100\n", 2, "before any stream"),
            ("hsc-trace v1\nstream npu\n", 2, "unknown stream kind"),
            ("hsc-trace v1\nstream\n", 2, "stream requires a kind"),
            ("hsc-trace v1\nstream cpu\nread 0x101\n", 3, "not 8-byte aligned"),
            ("hsc-trace v1\nstream cpu\nread 0x7ff00000\n", 3, "reserved mismatch-flag"),
            ("hsc-trace v1\nstream cpu\nread zebra\n", 3, "not a u64"),
            ("hsc-trace v1\nstream cpu\nwrite 0x100\n", 3, "missing write value"),
            ("hsc-trace v1\nstream cpu\natomic 0x100 nand 1\n", 3, "unknown atomic kind"),
            ("hsc-trace v1\nstream cpu\natomic 0x100 cas 1\n", 3, "cas new-value"),
            ("hsc-trace v1\nstream cpu\nfence acquire\n", 3, "only valid in a gpu"),
            ("hsc-trace v1\nstream dma\nfence acquire\n", 3, "only valid in a gpu"),
            ("hsc-trace v1\nstream dma\natomic 0x100 add 1\n", 3, "not valid in a dma"),
            ("hsc-trace v1\nstream dma\nread 0x100 expect 1\n", 3, "not supported in dma"),
            ("hsc-trace v1\nstream gpu\nfence sideways\n", 3, "unknown fence kind"),
            ("hsc-trace v1\nstream gpu\nfence\n", 3, "fence requires a kind"),
            ("hsc-trace v1\nstream cpu\nread 0x100 trailing\n", 3, "trailing token"),
            ("hsc-trace v1\nstream cpu extra\n", 2, "trailing token"),
            ("hsc-trace v1\nfrobnicate 1\n", 2, "unknown directive"),
            ("hsc-trace v1\ninit 0x100\n", 2, "missing init value"),
        ];
        for (text, line, needle) in cases {
            let err = parse(text).expect_err(&format!("must reject {text:?}"));
            assert_eq!(err.line, *line, "line number for {text:?}: {err}");
            assert!(
                err.message.contains(needle),
                "message for {text:?} should contain {needle:?}: {err}"
            );
            // Display renders the line number for CLI surfaces.
            assert!(err.to_string().starts_with(&format!("line {}:", err.line)));
        }
    }

    #[test]
    fn stream_limit_is_enforced() {
        let mut text = String::from("hsc-trace v1\n");
        for _ in 0..=RESERVED_WORDS {
            text.push_str("stream cpu\n");
        }
        let err = parse(&text).expect_err("too many streams");
        assert!(err.message.contains("too many streams"), "{err}");
        assert_eq!(err.line, RESERVED_WORDS as usize + 2);
    }
}
