//! Tiny command-line parsing shared by the experiment binaries, plus
//! the output [`Reporter`] keeping `--json` stdout machine-parseable.

use core::fmt;

use opd_core::lpt::default_threads;
use opd_core::{AnalyzerPolicy, AnchorPolicy, DetectorConfig, ModelPolicy, ResizePolicy, TwPolicy};

/// Routes CLI output so machines and humans never share a stream: in
/// `--json` mode, stdout carries exactly one JSON document
/// ([`payload`](Reporter::payload)) and every human-readable line
/// ([`human`](Reporter::human)) goes to stderr; otherwise human lines
/// go to stdout as usual.
#[derive(Debug, Clone, Copy)]
pub struct Reporter {
    json: bool,
}

impl Reporter {
    /// A reporter for a subcommand invocation; `json` is the
    /// `--json` flag.
    #[must_use]
    pub fn new(json: bool) -> Self {
        Reporter { json }
    }

    /// Whether this invocation is in JSON mode.
    #[must_use]
    pub fn json_mode(&self) -> bool {
        self.json
    }

    /// Prints a human-readable line: stdout normally, stderr in JSON
    /// mode (so parsers of stdout never see it).
    pub fn human(&self, text: impl fmt::Display) {
        if self.json {
            eprintln!("{text}");
        } else {
            println!("{text}");
        }
    }

    /// Prints the machine-readable payload to stdout. In JSON mode
    /// this must be the only stdout write of the invocation.
    pub fn payload(&self, text: impl fmt::Display) {
        println!("{text}");
    }
}

/// Parses a detector config spec of comma-separated `key=value`
/// pairs: `cw`, `tw`, `skip` (sizes), `policy` (`constant` |
/// `adaptive`), `anchor` (`rn` | `lnn`), `resize` (`slide` | `move`),
/// `model` (`unweighted` | `weighted` | `pearson`), and `threshold`
/// or `delta` (analyzer). Unset keys take the builder's defaults
/// (cw 500, tw = cw, skip 1).
///
/// # Errors
///
/// Returns a [`CliError`] for unknown keys, unparsable values, or a
/// combination the config builder rejects.
///
/// # Examples
///
/// ```
/// use opd_experiments::cli::parse_config_spec;
///
/// let config = parse_config_spec("cw=200,model=weighted,threshold=0.7")?;
/// assert_eq!(config.current_window(), 200);
/// # Ok::<(), opd_experiments::cli::CliError>(())
/// ```
pub fn parse_config_spec(spec: &str) -> Result<DetectorConfig, CliError> {
    let mut builder = DetectorConfig::builder().current_window(500);
    for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| CliError::invalid(format!("config spec `{pair}`"), "not key=value"))?;
        let (key, value) = (key.trim(), value.trim());
        let size = |v: &str, k: &str| v.parse::<usize>().map_err(|e| CliError::invalid(k, e));
        let real = |v: &str, k: &str| v.parse::<f64>().map_err(|e| CliError::invalid(k, e));
        builder = match key {
            "cw" => builder.current_window(size(value, "cw")?),
            "tw" => builder.trailing_window(size(value, "tw")?),
            "skip" => builder.skip_factor(size(value, "skip")?),
            "policy" => builder.tw_policy(match value {
                "constant" => TwPolicy::Constant,
                "adaptive" => TwPolicy::Adaptive,
                other => {
                    return Err(CliError::invalid(
                        "policy",
                        format_args!("unknown `{other}`"),
                    ))
                }
            }),
            "anchor" => builder.anchor(match value {
                "rn" => AnchorPolicy::RightmostNoisy,
                "lnn" => AnchorPolicy::LeftmostNonNoisy,
                other => {
                    return Err(CliError::invalid(
                        "anchor",
                        format_args!("unknown `{other}`"),
                    ))
                }
            }),
            "resize" => builder.resize(match value {
                "slide" => ResizePolicy::Slide,
                "move" => ResizePolicy::Move,
                other => {
                    return Err(CliError::invalid(
                        "resize",
                        format_args!("unknown `{other}`"),
                    ))
                }
            }),
            "model" => builder.model(match value {
                "unweighted" => ModelPolicy::UnweightedSet,
                "weighted" => ModelPolicy::WeightedSet,
                "pearson" => ModelPolicy::Pearson,
                other => {
                    return Err(CliError::invalid(
                        "model",
                        format_args!("unknown `{other}`"),
                    ))
                }
            }),
            "threshold" => builder.analyzer(AnalyzerPolicy::Threshold(real(value, "threshold")?)),
            "delta" => builder.analyzer(AnalyzerPolicy::Average {
                delta: real(value, "delta")?,
            }),
            other => {
                return Err(CliError::invalid(
                    "config spec",
                    format_args!("unknown key `{other}`"),
                ))
            }
        };
    }
    builder.build().map_err(|e| CliError::invalid("config", e))
}

/// Options every experiment binary accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CliOpts {
    /// Workload scale factor (`--scale N`, default 1).
    pub scale: u32,
    /// Worker threads (`--threads N`, default: available parallelism).
    pub threads: usize,
}

impl Default for CliOpts {
    fn default() -> Self {
        CliOpts {
            scale: 1,
            threads: default_threads(),
        }
    }
}

/// Error produced for malformed command lines.
///
/// Every variant is a *usage* error: tools report it on stderr and
/// exit with code 2, per the CLI contract (0 clean, 1 findings at the
/// failing severity, 2 usage/input errors) locked by
/// `tests/cli_errors.rs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A subcommand the tool does not know.
    UnknownSubcommand(String),
    /// A `--flag` the (sub)command does not know.
    UnknownFlag(String),
    /// A flag that takes a value hit the end of the argument list.
    MissingValue(String),
    /// A value that failed to parse or was rejected; `what` names the
    /// offending flag or spec, `reason` says why.
    InvalidValue {
        /// The flag or spec that carried the bad value.
        what: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// Flags that cannot be combined, or one that requires another.
    Conflict(String),
    /// Any other malformed invocation (missing or extra positionals).
    Usage(String),
}

impl CliError {
    /// An [`UnknownSubcommand`](CliError::UnknownSubcommand) error.
    #[must_use]
    pub fn unknown_subcommand(name: impl Into<String>) -> Self {
        CliError::UnknownSubcommand(name.into())
    }

    /// An [`UnknownFlag`](CliError::UnknownFlag) error.
    #[must_use]
    pub fn unknown_flag(flag: impl Into<String>) -> Self {
        CliError::UnknownFlag(flag.into())
    }

    /// A [`MissingValue`](CliError::MissingValue) error.
    #[must_use]
    pub fn missing_value(flag: impl Into<String>) -> Self {
        CliError::MissingValue(flag.into())
    }

    /// An [`InvalidValue`](CliError::InvalidValue) error.
    #[must_use]
    pub fn invalid(what: impl Into<String>, reason: impl fmt::Display) -> Self {
        CliError::InvalidValue {
            what: what.into(),
            reason: reason.to_string(),
        }
    }

    /// A [`Conflict`](CliError::Conflict) error.
    #[must_use]
    pub fn conflict(message: impl Into<String>) -> Self {
        CliError::Conflict(message.into())
    }

    /// A [`Usage`](CliError::Usage) error.
    #[must_use]
    pub fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }

    /// The process exit code for this error: always 2, the usage slot
    /// of the contract (0 clean, 1 findings, 2 usage).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        2
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownSubcommand(name) => write!(f, "unknown subcommand `{name}`"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            CliError::InvalidValue { what, reason } => write!(f, "bad {what}: {reason}"),
            CliError::Conflict(message) | CliError::Usage(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses `--scale N` and `--threads N` from an argument list
/// (excluding the program name).
///
/// # Errors
///
/// Returns a [`CliError`] for unknown flags or unparsable values.
///
/// # Examples
///
/// ```
/// use opd_experiments::cli::parse_args;
///
/// let opts = parse_args(["--scale", "2"].iter().map(|s| s.to_string()))?;
/// assert_eq!(opts.scale, 2);
/// # Ok::<(), opd_experiments::cli::CliError>(())
/// ```
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliOpts, CliError> {
    let mut opts = CliOpts::default();
    let mut iter = args.into_iter();
    while let Some(flag) = iter.next() {
        let mut value_for = |name: &str| iter.next().ok_or_else(|| CliError::missing_value(name));
        match flag.as_str() {
            "--scale" => {
                opts.scale = value_for("--scale")?
                    .parse()
                    .map_err(|e| CliError::invalid("--scale", e))?;
            }
            "--threads" => {
                opts.threads = value_for("--threads")?
                    .parse()
                    .map_err(|e| CliError::invalid("--threads", e))?;
            }
            other => return Err(CliError::unknown_flag(other)),
        }
    }
    Ok(opts)
}

/// Parses the process's own arguments, exiting with a usage message on
/// error — the entry point used by the experiment binaries.
#[must_use]
pub fn parse_env() -> CliOpts {
    match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e} (usage: --scale N --threads N)");
            std::process::exit(e.exit_code().into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOpts, CliError> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.scale, 1);
        assert!(opts.threads >= 1);
    }

    #[test]
    fn both_flags() {
        let opts = parse(&["--scale", "3", "--threads", "2"]).unwrap();
        assert_eq!(
            opts,
            CliOpts {
                scale: 3,
                threads: 2
            }
        );
    }

    #[test]
    fn errors_are_typed_and_map_to_exit_2() {
        assert_eq!(parse(&["--scale"]), Err(CliError::missing_value("--scale")));
        assert!(matches!(
            parse(&["--scale", "x"]),
            Err(CliError::InvalidValue { .. })
        ));
        assert_eq!(parse(&["--wat"]), Err(CliError::unknown_flag("--wat")));
        let e = parse(&["--wat"]).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert_eq!(e.to_string(), "unknown flag `--wat`");
        assert_eq!(
            CliError::invalid("--fuel", "not a number").to_string(),
            "bad --fuel: not a number"
        );
        assert_eq!(
            CliError::conflict("--resume requires --checkpoint PATH").exit_code(),
            2
        );
    }

    #[test]
    fn config_spec_parses_every_key() {
        let c = parse_config_spec(
            "cw=100,tw=50,skip=5,policy=adaptive,anchor=lnn,resize=move,model=pearson,delta=0.2",
        )
        .unwrap();
        assert_eq!(c.current_window(), 100);
        assert_eq!(c.trailing_window(), 50);
        assert_eq!(c.skip_factor(), 5);
        assert_eq!(c.tw_policy(), TwPolicy::Adaptive);
        assert_eq!(c.anchor(), AnchorPolicy::LeftmostNonNoisy);
        assert_eq!(c.resize(), ResizePolicy::Move);
        assert_eq!(c.model(), ModelPolicy::Pearson);
        assert_eq!(c.analyzer(), AnalyzerPolicy::Average { delta: 0.2 });
    }

    #[test]
    fn config_spec_defaults_and_errors() {
        let c = parse_config_spec("").unwrap();
        assert_eq!(c.current_window(), 500);
        let c = parse_config_spec("threshold=0.7").unwrap();
        assert_eq!(c.analyzer(), AnalyzerPolicy::Threshold(0.7));
        for bad in [
            "cw",
            "cw=zero",
            "policy=sometimes",
            "anchor=up",
            "resize=grow",
            "model=psychic",
            "volume=11",
            "cw=0",
        ] {
            assert!(parse_config_spec(bad).is_err(), "accepted {bad}");
        }
    }
}
