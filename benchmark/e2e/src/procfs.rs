//! Peak resident memory of this process, from `/proc/self/status`.

/// Parses the `VmHWM:` line (peak resident set, kB) out of the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_hwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  99999 kB\nVmHWM:\t   57344 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(57_344));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib().expect("linux procfs") > 0.5);
    }
}
