//! `hsc trace-gen`: emits `hsc-trace v1` corpus files from the seeded
//! traffic generator.
//!
//! Every emitted file is the canonical serialization of the generated
//! program: what was written is re-parsed and compared before the
//! function returns, so a corpus file on disk is always replayable
//! (`hsc characterize --trace <file>`) and re-serializes
//! byte-identically. The spec grammar is `preset[,key=value,...]` — see
//! `hsc_workloads::trace::TrafficSpec`.

use std::io::{self, Write};
use std::path::Path;

use hsc_workloads::trace::{presets, TraceProgram, TrafficSpec};

use crate::cli::{create_dir, OutFile};

/// Writes the canonical text of `spec`'s program into `file` and proves
/// the file replays: re-parse, compare, re-serialize, compare bytes.
fn emit(spec: &TrafficSpec, file: OutFile, out: &mut dyn Write) -> io::Result<()> {
    let program = spec.generate();
    let text = program.to_text();
    let reparsed = TraceProgram::parse(&text)
        .unwrap_or_else(|e| panic!("generated trace does not re-parse ({e}) — generator bug"));
    assert_eq!(reparsed, program, "re-parsed program differs — serializer bug");
    assert_eq!(reparsed.to_text(), text, "re-serialization is not byte-identical");
    let path = file.write(&text)?;
    writeln!(
        out,
        "{}: {} streams, {} ops, {} bytes ({spec})",
        path.display(),
        program.streams.len(),
        program.streams.iter().map(|s| s.ops.len()).sum::<usize>(),
        text.len(),
    )
}

/// Describes the presets (`list`), writes one generated trace (`single`)
/// and writes one file per preset into `corpus`, in that order. The
/// corpus directory and every file in it are created before anything is
/// generated.
///
/// A corpus directory or file that cannot be created is a usage error
/// naming the path.
pub fn trace_gen(
    list: bool,
    single: Option<(TrafficSpec, OutFile)>,
    corpus: Option<&Path>,
    out: &mut dyn Write,
) -> io::Result<()> {
    let mut corpus_files = Vec::new();
    if let Some(dir) = corpus {
        create_dir(dir)?;
        for (name, _, spec) in presets() {
            corpus_files.push((spec, OutFile::create(&dir.join(format!("{name}.trace")))?));
        }
    }
    if list {
        writeln!(out, "{:10} {:50} spec", "preset", "stresses")?;
        for (name, what, spec) in presets() {
            writeln!(out, "{name:10} {what:50} {spec}")?;
        }
    }
    for (spec, file) in single.into_iter().chain(corpus_files) {
        emit(&spec, file, out)?;
    }
    Ok(())
}
