//! Argument handling shared by the `repro` and `plugvolt-cli` binaries:
//! typed flag errors, value-taking flags, and the refusal of unknown
//! and repeated flags.

use std::fmt;

/// Typed errors for command-line arguments — structured variants
/// instead of ad-hoc `format!` strings, so callers and tests can match
/// on the failure.
#[derive(Debug)]
pub enum CliError {
    /// A value-taking flag was passed without its value.
    MissingValue {
        /// The flag in question.
        flag: &'static str,
    },
    /// A flag the command does not accept.
    UnknownFlag {
        /// The command.
        cmd: &'static str,
        /// The flag in question.
        flag: String,
    },
    /// A flag given more than once.
    RepeatedFlag {
        /// The flag in question.
        flag: String,
    },
    /// A positional argument beyond the ones the command takes.
    UnexpectedArgument {
        /// The token in question.
        token: String,
    },
    /// A flag's value does not parse.
    BadValue {
        /// The flag in question.
        flag: &'static str,
        /// The value given.
        value: String,
        /// Why it does not parse.
        detail: String,
    },
    /// A flag only meaningful in combination was passed alone.
    RequiresFlag {
        /// The flag in question.
        flag: &'static str,
        /// The flag it requires.
        requires: &'static str,
    },
    /// Stream-file I/O failed.
    StreamIo {
        /// Stream destination path.
        path: String,
        /// Underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { flag } => {
                write!(
                    f,
                    "{flag} requires a value (none given, or the next token is a flag)"
                )
            }
            CliError::UnknownFlag { cmd, flag } => write!(f, "{cmd} does not accept {flag}"),
            CliError::RepeatedFlag { flag } => write!(f, "{flag} given more than once"),
            CliError::UnexpectedArgument { token } => write!(f, "unexpected argument '{token}'"),
            CliError::BadValue {
                flag,
                value,
                detail,
            } => write!(f, "{flag}: invalid value '{value}' ({detail})"),
            CliError::RequiresFlag { flag, requires } => {
                write!(f, "{flag} only makes sense together with {requires}")
            }
            CliError::StreamIo { path, source } => {
                write!(f, "cannot write telemetry stream to {path}: {source}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The value of a value-taking flag, or a typed [`CliError`] when the
/// flag is present but the value token is missing or looks like
/// another flag.
pub fn value_of(args: &[String], flag: &'static str) -> Result<Option<String>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(CliError::MissingValue { flag }),
        },
    }
}

/// The parsed value of a value-taking flag, or a typed [`CliError`]
/// naming the flag when the value does not parse.
pub fn parsed<T, E: fmt::Display>(
    args: &[String],
    flag: &'static str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, CliError> {
    value_of(args, flag)?
        .map(|value| {
            parse(&value).map_err(|e| CliError::BadValue {
                flag,
                detail: e.to_string(),
                value,
            })
        })
        .transpose()
}

/// Refuses a `--flag` that is not among `accepted` (whitespace
/// separated), and any flag given twice (the first would silently win).
pub fn check_flags(cmd: &'static str, accepted: &str, args: &[String]) -> Result<(), CliError> {
    let flags: Vec<&String> = args.iter().filter(|a| a.starts_with("--")).collect();
    for (i, &flag) in flags.iter().enumerate() {
        if !accepted.split_whitespace().any(|a| a == flag) {
            let flag = flag.clone();
            return Err(CliError::UnknownFlag { cmd, flag });
        }
        if flags[..i].contains(&flag) {
            let flag = flag.clone();
            return Err(CliError::RepeatedFlag { flag });
        }
    }
    Ok(())
}

/// The positional arguments: every token that is neither a flag nor
/// the value of one of `value_flags`.
#[must_use]
pub fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut tokens = args.iter();
    while let Some(a) = tokens.next() {
        if value_flags.contains(&a.as_str()) {
            let _value = tokens.next();
        } else if !a.starts_with("--") {
            out.push(a.as_str());
        }
    }
    out
}
