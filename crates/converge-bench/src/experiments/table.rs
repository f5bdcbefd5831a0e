//! An experiment is a table. Nearly every figure of the paper's evaluation
//! has one shape — systems × streams / scenarios / loss rates down the
//! side, QoE metrics across the top — so a [`Table`] declares that shape
//! once: label columns, value columns (header, width, decimals and metric
//! each written once) and rows (label texts plus the [`Cell`] the row
//! runs). The job list, the printed report and the number a paper-shape
//! test asserts on ([`Table::value`]) all read this one declaration.
//!
//! Jobs are row-major with the seeds innermost, and the fold is positional
//! over them: row `i` reads reports `[i·s, (i+1)·s)` for `s` seeds, so
//! rewriting a job's seed or duration before the sweep (as `benchmark/e2e`
//! does) never moves a report to another row.

use std::fmt::Display;

use converge_net::SimDuration;
use converge_sim::cells::Cell;
use converge_sim::CallReport;

use crate::runner::Job;
use crate::stats::{mean_std, metric, pm};
use crate::sweep::ExperimentSpec;

/// One reading of one call, e.g. `|r| r.normalized_fps()`.
pub type Metric = fn(&CallReport) -> f64;

struct ValueColumn {
    head: &'static str,
    width: usize,
    decimals: usize,
    /// Print `mean ± std` rather than the bare mean.
    spread: bool,
    metric: Metric,
}

struct Row {
    labels: Vec<String>,
    cell: Cell,
    /// Print a blank line after this row.
    gap: bool,
}

/// A declared experiment table; see the module docs.
#[derive(Default)]
pub struct Table {
    title: String,
    /// Label columns: header, width, right-aligned.
    labels: Vec<(&'static str, usize, bool)>,
    values: Vec<ValueColumn>,
    rows: Vec<Row>,
    notes: String,
}

impl Table {
    /// A table whose report opens with `title` (the `# …` lines above the
    /// header, without the final newline).
    pub fn new(title: &str) -> Self {
        Table {
            title: title.to_string(),
            ..Table::default()
        }
    }

    /// Adds a left-aligned label column.
    pub fn label(mut self, head: &'static str, width: usize) -> Self {
        self.labels.push((head, width, false));
        self
    }

    /// Adds a right-aligned label column (a stream count, a loss rate).
    pub fn label_right(mut self, head: &'static str, width: usize) -> Self {
        self.labels.push((head, width, true));
        self
    }

    /// Adds a value column printing `mean ± std` of `metric` over the
    /// row's seeds.
    pub fn mean(self, head: &'static str, width: usize, decimals: usize, metric: Metric) -> Self {
        self.value_column(head, width, decimals, true, metric)
    }

    /// Adds a value column printing the bare mean of `metric` — the value
    /// itself in a one-seed table.
    pub fn num(self, head: &'static str, width: usize, decimals: usize, metric: Metric) -> Self {
        self.value_column(head, width, decimals, false, metric)
    }

    fn value_column(
        mut self,
        head: &'static str,
        width: usize,
        decimals: usize,
        spread: bool,
        metric: Metric,
    ) -> Self {
        let column = ValueColumn {
            head,
            width,
            decimals,
            spread,
            metric,
        };
        self.values.push(column);
        self
    }

    /// Appends one `# …` line below the rows.
    pub fn note(mut self, line: &str) -> Self {
        self.notes.push_str(line);
        self.notes.push('\n');
        self
    }

    /// Adds a row: one text per label column, and the cell it runs. Panics
    /// on a wrong label count or on label texts an earlier row already
    /// carries — a lookup by label must be unambiguous.
    pub fn row(&mut self, labels: &[&dyn Display], cell: Cell) {
        let labels: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
        let (title, want) = (&self.title, self.labels.len());
        assert_eq!(labels.len(), want, "{title}: label count of row {labels:?}");
        let repeated = self.rows.iter().any(|row| row.labels == labels);
        assert!(!repeated, "{title}: two rows labelled {labels:?}");
        self.rows.push(Row {
            labels,
            cell,
            gap: false,
        });
    }

    /// Prints one blank line after the last row added (end of a group).
    pub fn gap(&mut self) {
        self.rows.last_mut().expect("a gap follows a row").gap = true;
    }

    /// Every row × seed job: row-major, seeds innermost.
    pub fn jobs(&self, seeds: &[u64], duration: SimDuration) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.rows.len() * seeds.len());
        for row in &self.rows {
            jobs.extend(seeds.iter().map(|&seed| Job::new(row.cell, duration, seed)));
        }
        jobs
    }

    /// The experiment: [`Table::jobs`] plus [`Table::render`] as the fold.
    pub fn spec(self, seeds: &[u64], duration: SimDuration) -> ExperimentSpec {
        let jobs = self.jobs(seeds, duration);
        let fold = Box::new(move |reports: &[&CallReport]| self.render(reports));
        ExperimentSpec { jobs, fold }
    }

    /// The printable report over the reports of [`Table::jobs`], in order.
    pub fn render(&self, reports: &[&CallReport]) -> String {
        let heads = self.values.iter().map(|col| col.head.to_string());
        let mut out = format!("{}\n", self.title);
        out.push_str(&self.line(self.labels.iter().map(|col| col.0), heads));
        for (row, reports) in self.rows.iter().zip(self.per_row(reports)) {
            let values = self.values.iter().map(|col| col.text(reports));
            out.push_str(&self.line(row.labels.iter().map(String::as_str), values));
            if row.gap {
                out.push('\n');
            }
        }
        out + &self.notes
    }

    /// The mean the row labelled `labels` prints under `head`, over the
    /// same ordered reports [`Table::render`] takes.
    pub fn value(&self, reports: &[&CallReport], labels: &[&str], head: &str) -> f64 {
        let row = self.rows.iter().position(|row| row.labels == labels);
        let row = row.unwrap_or_else(|| panic!("{}: no row {labels:?}", self.title));
        let col = self.values.iter().find(|col| col.head == head);
        let col = col.unwrap_or_else(|| panic!("{}: no column {head:?}", self.title));
        col.mean(self.per_row(reports).nth(row).expect("one report per job"))
    }

    /// The reports split by row: as many per row as seeds were declared.
    fn per_row<'a, 'r>(
        &self,
        reports: &'a [&'r CallReport],
    ) -> std::slice::ChunksExact<'a, &'r CallReport> {
        reports.chunks_exact(reports.len() / self.rows.len())
    }

    /// One printed line, header or row: the only place a width is applied.
    fn line<'a>(
        &self,
        labels: impl Iterator<Item = &'a str>,
        values: impl Iterator<Item = String>,
    ) -> String {
        let labels = self.labels.iter().zip(labels);
        let labels = labels.map(|(&(_, width, right), text)| match right {
            true => format!("{text:>width$}"),
            false => format!("{text:<width$}"),
        });
        let values = self.values.iter().zip(values);
        let values = values.map(|(col, text)| format!("{text:>w$}", w = col.width));
        labels.chain(values).collect::<Vec<_>>().join(" ") + "\n"
    }
}

impl ValueColumn {
    fn mean(&self, reports: &[&CallReport]) -> f64 {
        mean_std(&metric(reports, self.metric)).0
    }

    fn text(&self, reports: &[&CallReport]) -> String {
        match self.spread {
            true => pm(&metric(reports, self.metric), self.decimals),
            false => format!("{:.d$}", self.mean(reports), d = self.decimals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{reports_of, CachedRun, CellCache};
    use converge_sim::cells::ScenarioSpec;
    use converge_sim::{FecKind, SchedulerKind};
    use std::sync::Arc;

    const FIVE_S: SimDuration = SimDuration::from_secs(5);

    fn cell(loss_pct: f64) -> Cell {
        let scenario = ScenarioSpec::fec_tradeoff_pct(loss_pct);
        Cell::new(scenario, SchedulerKind::Converge, FecKind::Converge, 1)
    }

    /// A left label, a right label, a `mean` and a `num` column.
    fn columns() -> Table {
        Table::new("# title")
            .label("net", 8)
            .label_right("loss%", 6)
            .mean("fps", 12, 1, |r| r.fps)
            .num("frames", 8, 0, |r| r.frames_decoded as f64)
            .note("# note")
    }

    /// Two rows, the first closing a group.
    fn two_rows() -> Table {
        let mut table = columns();
        table.row(&[&"clean", &0], cell(0.0));
        table.gap();
        table.row(&[&"lossy", &3], cell(3.0));
        table
    }

    /// One 5-second call per row of [`two_rows`], from a private cache.
    fn two_calls() -> Vec<Arc<CachedRun>> {
        CellCache::new().runs(&two_rows().jobs(&[7], FIVE_S))
    }

    #[test]
    fn jobs_are_row_major_with_seeds_innermost() {
        let want: Vec<Job> = [(0.0, 1), (0.0, 2), (3.0, 1), (3.0, 2)]
            .iter()
            .map(|&(loss, seed)| Job::new(cell(loss), FIVE_S, seed))
            .collect();
        assert_eq!(two_rows().jobs(&[1, 2], FIVE_S), want);
        assert_eq!(two_rows().spec(&[1, 2], FIVE_S).jobs, want);
    }

    #[test]
    fn header_and_rows_share_widths_and_a_gap_is_one_blank_line() {
        let runs = two_calls();
        let calls = reports_of(&runs);
        let row = |net: &str, loss: u32, r: &CallReport| {
            let fps = pm(&[r.fps], 1);
            format!("{net:<8} {loss:>6} {fps:>12} {:>8}", r.frames_decoded)
        };
        let want = [
            "# title".to_string(),
            format!("{:<8} {:>6} {:>12} {:>8}", "net", "loss%", "fps", "frames"),
            row("clean", 0, calls[0]),
            String::new(),
            row("lossy", 3, calls[1]),
            "# note".to_string(),
        ];
        assert_eq!(two_rows().render(&calls), want.join("\n") + "\n");
        // The spec's fold is the same rendering.
        assert_eq!(
            (two_rows().spec(&[7], FIVE_S).fold)(&calls),
            two_rows().render(&calls)
        );
    }

    #[test]
    fn mean_prints_pm_num_the_bare_mean_and_value_returns_both() {
        // The same two calls read as two seeds of one row.
        let runs = two_calls();
        let calls = reports_of(&runs);
        let mut table = columns();
        table.row(&[&"both", &"-"], cell(0.0));
        let fps = [calls[0].fps, calls[1].fps];
        let frames = (calls[0].frames_decoded + calls[1].frames_decoded) as f64 / 2.0;
        let row = format!(
            "{:<8} {:>6} {:>12} {:>8}\n",
            "both",
            "-",
            pm(&fps, 1),
            format!("{frames:.0}")
        );
        assert!(
            table.render(&calls).contains(&row),
            "{}",
            table.render(&calls)
        );
        assert_eq!(table.value(&calls, &["both", "-"], "fps"), mean_std(&fps).0);
        assert_eq!(table.value(&calls, &["both", "-"], "frames"), frames);
        // In the two-row table the same lookup reads one call.
        assert_eq!(
            two_rows().value(&calls, &["lossy", "3"], "fps"),
            calls[1].fps
        );
    }

    #[test]
    #[should_panic(expected = "label count of row")]
    fn a_row_with_the_wrong_label_count_panics_at_declaration() {
        columns().row(&[&"clean"], cell(0.0));
    }

    #[test]
    #[should_panic(expected = "two rows labelled")]
    fn two_rows_with_equal_labels_are_refused() {
        let mut table = two_rows();
        table.row(&[&"clean", &0], cell(5.0));
    }
}
