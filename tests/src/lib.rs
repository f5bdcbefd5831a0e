//! Cross-crate integration tests for the Converge workspace live in the
//! `tests/` directory of this crate; the library itself only hosts shared
//! helpers.

/// Builds a deterministic two-path clean-network scenario used by several
/// integration tests.
pub fn clean_scenario() -> converge_sim::ScenarioConfig {
    converge_sim::ScenarioConfig::fec_tradeoff(0.0)
}

/// A whole JSONL timeline document, as a traced sweep writes it: the
/// header, then one line per record, each newline terminated.
pub fn render_timeline(job: &str, records: &[converge_trace::TraceRecord]) -> String {
    let mut out = converge_trace::jsonl::header_line(job) + "\n";
    for record in records {
        out.push_str(&converge_trace::jsonl::record_line(record));
        out.push('\n');
    }
    out
}

/// Compares `rendered` with `tests/fixtures/<file>` byte for byte, or
/// rewrites the fixture when `UPDATE_GOLDEN` is set. A mismatch names the
/// first line that differs, its terminator included, so a lost final
/// newline or a stray `\r` fails too.
#[track_caller]
pub fn assert_matches_golden(file: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write fixture");
        eprintln!("golden fixture regenerated at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if rendered == expected {
        return;
    }
    let (mut got, mut want) = (
        rendered.split_inclusive('\n'),
        expected.split_inclusive('\n'),
    );
    let (line, got, want) = (1..)
        .map(|i| (i, got.next(), want.next()))
        .find(|(_, a, b)| a != b)
        .expect("unequal texts differ in some line");
    let show = |l: Option<&str>| l.map_or("<end of file>".to_string(), |l| format!("{l:?}"));
    panic!(
        "{file} drifted from {} at line {line}:\n  got:  {}\n  want: {}\n\
         If the change is intentional, regenerate with UPDATE_GOLDEN=1 and review the diff.",
        path.display(),
        show(got),
        show(want)
    );
}
