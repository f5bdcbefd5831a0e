//! The flags both benchmark binaries take (`run.sh` turns the driver's
//! `--trace 0|1` into the choice of binary).

use crate::workloads::DEFAULT_SEED;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload NAME`
    pub workload: Option<String>,
    /// `--seed N`
    pub seed: u64,
    /// `--seconds S`: how long one run measures.
    pub seconds: f64,
    /// `--smoke`: short jobs, one pass.
    pub smoke: bool,
    /// `--setup-probe`: run as a set-up probe child.
    pub setup_probe: bool,
    /// `--compare A B`
    pub compare: Option<(String, String)>,
    /// `--results-dir DIR`: where result files go.
    pub results_dir: String,
}

impl Args {
    /// Parses `args` (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            smoke: false,
            setup_probe: false,
            compare: None,
            results_dir: "benchmark/results".into(),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => parsed.workload = Some(value()?),
                "--seed" => {
                    parsed.seed = value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?
                }
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--results-dir" => parsed.results_dir = value()?,
                "--compare" => parsed.compare = Some((value()?, value()?)),
                "--smoke" => parsed.smoke = true,
                "--setup-probe" => parsed.setup_probe = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_drivers_flags() {
        let a = parse("--workload fleet-sfu --seed 7 --seconds 12").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("fleet-sfu"));
        assert_eq!((a.seed, a.seconds, a.smoke), (7, 12.0, false));
        assert_eq!(parse("").expect("defaults").seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--frobnicate",
            "--compare a",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
