//! The `hsc` command line: one argument parser, and one flat table that
//! maps each sub-command to the library function that runs it.
//!
//! Every sub-command declares which parameters it accepts; anything else
//! is `unknown argument` plus usage on stderr and exit status 2, with
//! nothing on stdout. Whatever an invocation needs from outside the
//! program — the worker count, a trace to replay, every output path — is
//! resolved here, before any simulation starts, so a typo or an
//! unwritable path costs nothing and the experiment functions only ever
//! see checked values.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hsc_core::{CoherenceConfig, SystemConfig};
use hsc_workloads::trace::{StreamKind, TraceProgram, TraceWorkload, TrafficSpec};
use hsc_workloads::{all_workloads, workload_by_name, Hsti, Tq, Workload};

use crate::analyze::analyze;
use crate::characterize::characterize;
use crate::check::check;
use crate::faults::faults;
use crate::figures::{
    ablation, extension, fig4, fig5, fig6, fig7, optimization_sweep, tracking_sweep,
};
use crate::par::Parallelism;
use crate::repro::repro;
use crate::tables::{table1, table2, table3};
use crate::trace_gen::trace_gen;
use crate::validate::validate_file;

/// A parameter: its spelling and its operand's placeholder. A switch has no
/// operand and a positional parameter no spelling. These fourteen are the
/// whole command line; a sub-command accepts a subset.
type Flag = (&'static str, &'static str);
const REPORT_FILE: Flag = ("", "<report.json>");
const WORKLOAD: Flag = ("", "[<workload>]");
const QUICK: Flag = ("--quick", "");
const LIST: Flag = ("--list", "");
const REPORT: Flag = ("--report", "<path>");
const PERFETTO: Flag = ("--perfetto", "<path>");
const TRACE: Flag = ("--trace", "<file>");
const TRACE_GEN: Flag = ("--trace-gen", "<spec>");
const JOBS: Flag = ("--jobs", "<N>");
const CONFIG: Flag = ("--config", "<baseline|sharer_tracking>");
const SPEC: Flag = ("--spec", "<spec>");
const OUT: Flag = ("--out", "<file>");
const CORPUS: Flag = ("--corpus", "<dir>");

/// A bad invocation: reported with the usage line, exit status 2.
pub fn usage_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message.into())
}

/// One parsed command line: the parameters given, by spelling.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args(Vec<(&'static str, String)>);

impl Args {
    fn parse(cmd: &Command, mut raw: impl Iterator<Item = String>) -> io::Result<Args> {
        let mut args = Args::default();
        while let Some(arg) = raw.next() {
            let positional = !arg.starts_with('-') && !args.has(("", ""));
            let spelling = if positional { "" } else { arg.as_str() };
            let Some(&(name, operand)) = cmd.flags.iter().find(|f| f.0 == spelling) else {
                return Err(usage_error(format!("unknown argument '{arg}'")));
            };
            let value = match (positional, operand) {
                (true, _) => arg,
                (false, "") => String::new(),
                _ => raw
                    .next()
                    .ok_or_else(|| usage_error(format!("{name} requires a {operand} operand")))?,
            };
            args.0.push((name, value));
        }
        if args.has(TRACE) && args.has(TRACE_GEN) {
            return Err(usage_error("--trace and --trace-gen are mutually exclusive"));
        }
        Ok(args)
    }

    /// The operand of `flag` (empty for a switch), if it was given.
    fn value(&self, flag: Flag) -> Option<&str> {
        self.0.iter().rev().find(|(name, _)| *name == flag.0).map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: Flag) -> bool {
        self.value(flag).is_some()
    }

    /// Creates the file `flag` names, if it was given.
    fn create(&self, flag: Flag) -> io::Result<Option<OutFile>> {
        self.value(flag).map(|path| OutFile::create(Path::new(path))).transpose()
    }

    /// The campaign worker count: `--jobs`, else the machine's available
    /// parallelism.
    fn parallelism(&self) -> io::Result<Parallelism> {
        let jobs = self.value(JOBS).map(|raw| {
            let n = raw.parse::<usize>().ok().filter(|&n| n > 0);
            n.ok_or_else(|| {
                usage_error(format!("--jobs operand {raw:?} is not a positive integer"))
            })
        });
        Ok(Parallelism::resolve(jobs.transpose()?))
    }

    /// Resolves `--trace` / `--trace-gen` into the one replay workload, or
    /// `suite` when neither was given. An unreadable path, a malformed
    /// file (reported with its line number), a bad spec and a program
    /// that needs more CPU streams than the evaluation system has are all
    /// usage errors.
    fn workloads_or(
        &self,
        suite: fn() -> Vec<Box<dyn Workload>>,
    ) -> io::Result<Vec<Box<dyn Workload>>> {
        let program = if let Some(path) = self.value(TRACE) {
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| TraceProgram::parse(&text).map_err(|e| e.to_string()))
                .map_err(|e| usage_error(format!("--trace {path}: {e}")))?
        } else if let Some(spec) = self.value(TRACE_GEN) {
            let spec = TrafficSpec::parse(spec);
            spec.map_err(|e| usage_error(format!("--trace-gen: {e}")))?.generate()
        } else {
            return Ok(suite());
        };
        let cpu_cap = SystemConfig::default().corepairs * 2;
        let cpu = program.stream_count(StreamKind::Cpu);
        if cpu > cpu_cap {
            return Err(usage_error(format!(
                "trace has {cpu} cpu streams; the system hosts at most {cpu_cap}"
            )));
        }
        Ok(vec![Box::new(TraceWorkload::new(program))])
    }
}

/// An output file created before the work that fills it starts, so that
/// an unwritable path is a usage error and not a lost campaign.
#[derive(Debug)]
pub struct OutFile {
    path: PathBuf,
    file: File,
}

impl OutFile {
    /// Creates (or truncates) `path`; failing is a [`usage_error`] that
    /// reads `<path>: <os error>`.
    pub fn create(path: &Path) -> io::Result<Self> {
        match File::create(path) {
            Ok(file) => Ok(OutFile { path: path.to_owned(), file }),
            Err(e) => Err(usage_error(format!("{}: {e}", path.display()))),
        }
    }

    /// Writes `text` as the file's whole content and returns its path.
    pub fn write(mut self, text: &str) -> io::Result<PathBuf> {
        self.file.write_all(text.as_bytes())?;
        Ok(self.path)
    }
}

/// Creates `dir` and its parents, for output; failing is a [`usage_error`]
/// like [`OutFile::create`]'s.
pub fn create_dir(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir).map_err(|e| usage_error(format!("{}: {e}", dir.display())))
}

fn done(written: io::Result<()>) -> io::Result<ExitCode> {
    written.map(|()| ExitCode::SUCCESS)
}

/// One row of the dispatch table.
struct Command {
    /// The sub-command as typed, e.g. `"fig 4"`.
    name: &'static str,
    flags: &'static [Flag],
    about: &'static str,
    run: fn(&Args, &mut dyn Write) -> io::Result<ExitCode>,
}

impl Command {
    fn usage(&self) -> String {
        let mut usage = format!("hsc {}", self.name);
        for (name, operand) in self.flags {
            usage.push_str(&match (*name, *operand) {
                ("", _) => format!(" {operand}"),
                (_, "") => format!(" [{name}]"),
                _ => format!(" [{name} {operand}]"),
            });
        }
        usage
    }
}

/// The sub-commands, in the order `hsc help` lists them: the paper's
/// tables and figures, then the campaigns and tools around them.
static COMMANDS: [Command; 16] = [
    Command {
        name: "table 1",
        flags: &[],
        about: "Table I: the tracking directory's state machine, from the live protocol",
        run: |_, out| done(table1(out)),
    },
    Command {
        name: "table 2",
        flags: &[],
        about: "Table II: cache configurations, from SystemConfig",
        run: |_, out| done(table2(out)),
    },
    Command {
        name: "table 3",
        flags: &[],
        about: "Table III: system configuration, from SystemConfig",
        run: |_, out| done(table3(out)),
    },
    Command {
        name: "fig 4",
        flags: &[JOBS],
        about: "Figure 4: % cycles saved by each §III optimization, ten benchmarks",
        run: |a, out| done(fig4(&optimization_sweep(a.parallelism()?), out)),
    },
    Command {
        name: "fig 5",
        flags: &[JOBS],
        about: "Figure 5: directory-to-memory reads and writes per §III configuration",
        run: |a, out| done(fig5(&optimization_sweep(a.parallelism()?), out)),
    },
    Command {
        name: "fig 6",
        flags: &[JOBS],
        about: "Figure 6: % cycles saved by §IV state tracking, five collaborative benchmarks",
        run: |a, out| done(fig6(&tracking_sweep(a.parallelism()?), out)),
    },
    Command {
        name: "fig 7",
        flags: &[JOBS],
        about: "Figure 7: % directory probes saved by §IV state tracking",
        run: |a, out| done(fig7(&tracking_sweep(a.parallelism()?), out)),
    },
    Command {
        name: "ablation",
        flags: &[JOBS],
        about: "§VII ablation: Tree-PLRU vs state-aware directory replacement, 512 entries",
        run: |a, out| done(ablation(a.parallelism()?, out)),
    },
    Command {
        name: "extension",
        flags: &[JOBS],
        about: "the CHAI benchmarks the paper could not run (tqh), on every configuration",
        run: |a, out| done(extension(a.parallelism()?, out)),
    },
    Command {
        name: "characterize",
        flags: &[REPORT, TRACE, TRACE_GEN, JOBS],
        about: "§V characterization: request mix and cache behaviour of the suite, or a trace",
        run: |a, out| {
            let (par, workloads) = (a.parallelism()?, a.workloads_or(all_workloads)?);
            done(characterize(&workloads, par, a.create(REPORT)?, out))
        },
    },
    Command {
        name: "faults",
        flags: &[REPORT, TRACE, TRACE_GEN, JOBS],
        about: "fault injection: message-drop rates x {hsti, tq} or a trace, with retries on",
        run: |a, out| {
            let suite = || -> Vec<Box<dyn Workload>> {
                vec![Box::new(Hsti::default()), Box::new(Tq::default())]
            };
            let (par, workloads) = (a.parallelism()?, a.workloads_or(suite)?);
            faults(&workloads, par, a.create(REPORT)?, out)
        },
    },
    Command {
        name: "check",
        flags: &[QUICK, PERFETTO, JOBS],
        about: "model checker: the litmus catalog exhaustively, plus seeded fault sweeps",
        run: |a, out| {
            let par = a.parallelism()?;
            // Here --perfetto names the directory counterexample traces go to.
            let dir = a.value(PERFETTO).map(Path::new);
            dir.map(create_dir).transpose()?;
            check(par, a.has(QUICK), dir, out)
        },
    },
    Command {
        name: "trace-gen",
        flags: &[LIST, SPEC, OUT, CORPUS],
        about: "hsc-trace v1 files: --list | --spec <spec> --out <file> | --corpus <dir>",
        run: |a, out| {
            let spec = a.value(SPEC).map(TrafficSpec::parse).transpose().map_err(usage_error)?;
            if spec.is_some() != a.has(OUT) {
                return Err(usage_error("--spec and --out go together"));
            }
            let corpus = a.value(CORPUS).map(Path::new);
            if !a.has(LIST) && spec.is_none() && corpus.is_none() {
                return Err(usage_error("nothing to do"));
            }
            let single = spec.zip(a.create(OUT)?);
            done(trace_gen(a.has(LIST), single, corpus, out))
        },
    },
    Command {
        name: "report validate",
        flags: &[REPORT_FILE],
        about: "check a run report against its schema: exit 0 valid, 1 violations, 2 unreadable",
        run: |a, out| match a.value(REPORT_FILE) {
            Some(path) => validate_file(path, out),
            None => Err(usage_error("expected exactly one report path")),
        },
    },
    Command {
        name: "report analyze",
        flags: &[WORKLOAD, CONFIG, REPORT],
        about: "measured transition matrices and sharing classes of one benchmark (default cedd)",
        run: |a, out| {
            let name = a.value(WORKLOAD).unwrap_or("cedd");
            let w = workload_by_name(name)
                .ok_or_else(|| usage_error(format!("unknown workload '{name}'")))?;
            // The paper's §IV directory is the default.
            let (config, coherence) = match a.value(CONFIG).unwrap_or("sharer_tracking") {
                "sharer_tracking" => ("sharer_tracking", CoherenceConfig::sharer_tracking()),
                "baseline" => ("baseline", CoherenceConfig::baseline()),
                other => return Err(usage_error(format!("unknown config '{other}'"))),
            };
            analyze(w.as_ref(), config, coherence, a.create(REPORT)?, out)
        },
    },
    Command {
        name: "repro",
        flags: &[QUICK, REPORT, PERFETTO, JOBS],
        about: "the whole evaluation in the paper's order (--quick: report runs only)",
        run: |a, out| {
            if a.has(QUICK) && !a.has(REPORT) && !a.has(PERFETTO) {
                return Err(usage_error("--quick needs --report or --perfetto"));
            }
            let (par, report, perfetto) =
                (a.parallelism()?, a.create(REPORT)?, a.create(PERFETTO)?);
            done(repro(par, a.has(QUICK), report, perfetto, out))
        },
    },
];

/// Writes the sub-command index: one usage line and one sentence each.
fn write_index(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "usage: hsc <sub-command> [flags]")?;
    writeln!(out)?;
    for cmd in &COMMANDS {
        writeln!(out, "  {}", cmd.usage())?;
        writeln!(out, "      {}", cmd.about)?;
    }
    writeln!(out)?;
    writeln!(out, "--jobs <N> sets the campaign worker threads (default: the machine's available")?;
    writeln!(out, "parallelism); stdout and every report are byte-identical at any worker count.")
}

/// Runs the `hsc` command line `raw` (without the program name), writing
/// the sub-command's tables to `out` and diagnostics to stderr, and
/// returns the process exit status: 2 for a usage error, otherwise the
/// sub-command's own.
pub fn run(raw: impl Iterator<Item = String>, out: &mut dyn Write) -> ExitCode {
    let raw: Vec<String> = raw.collect();
    if matches!(raw.first().map(String::as_str), None | Some("help")) {
        return write_index(out).map_or(ExitCode::FAILURE, |()| ExitCode::SUCCESS);
    }
    let Some((cmd, words)) = COMMANDS.iter().find_map(|c| {
        let words = c.name.split(' ').count();
        (raw.len() >= words && raw[..words].join(" ") == c.name).then_some((c, words))
    }) else {
        eprintln!("hsc: unknown sub-command '{}'", raw[..raw.len().min(2)].join(" "));
        let _ = write_index(&mut io::stderr());
        return ExitCode::from(2);
    };
    let rest = raw.into_iter().skip(words);
    match Args::parse(cmd, rest).and_then(|args| (cmd.run)(&args, out)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hsc {}: {e}", cmd.name);
            if e.kind() != io::ErrorKind::InvalidInput {
                return ExitCode::FAILURE; // writing stdout or an output file failed
            }
            eprintln!("usage: {}", cmd.usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect("a sub-command")
    }

    fn parse(name: &str, args: &[&str]) -> Result<Args, String> {
        Args::parse(command(name), args.iter().map(|s| (*s).to_owned())).map_err(|e| e.to_string())
    }

    #[test]
    fn parses_every_flag_a_sub_command_accepts() {
        assert_eq!(parse("repro", &[]).unwrap(), Args::default());
        let a = parse("repro", &["--quick", "--report", "r.json", "--perfetto", "p.json"]).unwrap();
        assert!(a.has(QUICK) && !a.has(JOBS));
        assert_eq!(a.value(REPORT), Some("r.json"));
        assert_eq!(a.value(PERFETTO), Some("p.json"));
        let a = parse("faults", &["--trace", "t", "--jobs", "4"]).unwrap();
        assert!(!a.has(TRACE_GEN));
        assert_eq!(a.value(TRACE), Some("t"));
        assert_eq!(a.parallelism().unwrap().jobs(), 4);
        let a = parse("trace-gen", &["--list", "--spec", "hotspot", "--out", "o", "--corpus", "d"])
            .unwrap();
        assert!(a.has(LIST) && a.has(SPEC) && a.has(OUT) && a.has(CORPUS));
        let a = parse("report analyze", &["sc", "--config", "baseline"]).unwrap();
        assert_eq!((a.value(WORKLOAD), a.value(CONFIG)), (Some("sc"), Some("baseline")));
    }

    #[test]
    fn trace_and_trace_gen_are_mutually_exclusive() {
        let a = parse("characterize", &["--trace-gen", "hotspot,seed=7"]).unwrap();
        assert_eq!(a.value(TRACE_GEN), Some("hotspot,seed=7"));
        let err = parse("characterize", &["--trace", "a", "--trace-gen", "hotspot"]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn a_flag_of_another_sub_command_is_unknown_here() {
        for (name, junk) in [("fig 4", "--quick"), ("repro", "--shards"), ("table 2", "--jobs")] {
            let err = parse(name, &[junk, "2"]).unwrap_err();
            assert!(err.contains("unknown argument") && err.contains(junk), "{err}");
        }
        let err = parse("report validate", &["a.json", "b.json"]).unwrap_err();
        assert!(err.contains("'b.json'"), "one operand too many: {err}");
    }

    #[test]
    fn missing_and_bad_operands_name_the_flag() {
        for flag in ["--report", "--perfetto", "--jobs"] {
            assert!(parse("repro", &[flag]).unwrap_err().contains(flag));
        }
        for flag in ["--trace", "--trace-gen"] {
            assert!(parse("characterize", &[flag]).unwrap_err().contains(flag));
        }
        for bad in ["0", "-2", "many"] {
            let err = parse("fig 6", &["--jobs", bad]).unwrap().parallelism().unwrap_err();
            assert!(err.to_string().contains("positive integer"), "{err}");
        }
    }

    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        assert_eq!(command("table 2").usage(), "hsc table 2");
        assert_eq!(command("fig 4").usage(), "hsc fig 4 [--jobs <N>]");
        assert_eq!(command("report validate").usage(), "hsc report validate <report.json>");
        assert_eq!(
            command("check").usage(),
            "hsc check [--quick] [--perfetto <path>] [--jobs <N>]"
        );
    }
}
