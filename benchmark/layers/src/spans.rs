//! Spans around the calls into each layer, recorded from outside.
//!
//! A traced pass opens tens of millions of spans, so they are aggregated in
//! memory (self time and call count per layer); full records — name, start,
//! end, parent, job — are kept only while [`Spans::recording`] is set (one
//! simulated second per job) and written out when the run ends. The cost of
//! an empty span is calibrated and subtracted, so a layer's self time is
//! net of the instrumentation that measured it.

use std::time::Instant;

/// The layers of the mirrored session loop, outermost call sites first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Layer {
    /// Building paths, emulator, sender, receiver, pacer, collector.
    SessionSetup,
    /// Choosing the next event time (idle check, three-way minimum).
    LoopNextEvent,
    /// The session's timer queue: pops and re-arms.
    EventTimers,
    /// Pacer polls, rate updates and enqueues.
    Pacer,
    /// `NetworkEmulator::send`, either direction.
    EmulatorSend,
    /// `NetworkEmulator::poll_into`.
    EmulatorPoll,
    /// `ConferenceSender::on_frame_tick` and `path_metrics`.
    SenderFrame,
    /// `ConferenceSender::{on_rtcp, on_probe_echo, periodic_rtcp}`.
    SenderRtcp,
    /// `ConferenceReceiver::on_rtp`.
    ReceiverRtp,
    /// `ConferenceReceiver::poll_rtcp_with` and SR/SDES bookkeeping.
    ReceiverRtcp,
    /// Every `MetricsCollector` call, `finish` included.
    Metrics,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 11] = [
        Layer::SessionSetup,
        Layer::LoopNextEvent,
        Layer::EventTimers,
        Layer::Pacer,
        Layer::EmulatorSend,
        Layer::EmulatorPoll,
        Layer::SenderFrame,
        Layer::SenderRtcp,
        Layer::ReceiverRtp,
        Layer::ReceiverRtcp,
        Layer::Metrics,
    ];

    /// The layer's metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SessionSetup => "session.setup",
            Layer::LoopNextEvent => "loop.next_event",
            Layer::EventTimers => "event.timers",
            Layer::Pacer => "pacer",
            Layer::EmulatorSend => "emulator.send",
            Layer::EmulatorPoll => "emulator.poll",
            Layer::SenderFrame => "sender.frame",
            Layer::SenderRtcp => "sender.rtcp",
            Layer::ReceiverRtp => "receiver.rtp",
            Layer::ReceiverRtcp => "receiver.rtcp",
            Layer::Metrics => "metrics",
        }
    }
}

/// One fully recorded span. A job's root span has `layer: None` and
/// `parent: 0`; every layer span's parent is its job's root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within the run, from 1.
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// Index of the job in the workload's job list.
    pub job: u32,
    /// The layer, or `None` for the job's root span.
    pub layer: Option<Layer>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// One JSONL line.
    pub fn to_jsonl(self) -> String {
        format!(
            "{{\"id\": {}, \"parent\": {}, \"job\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            self.id,
            self.parent,
            self.job,
            self.layer.map_or("job", Layer::name),
            self.start_ns,
            self.end_ns
        )
    }
}

/// What an empty span costs, measured on this machine in this run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// Part of the cost that lands inside the span's own duration.
    pub inner_ns: f64,
    /// Whole cost of one span to the pass that contains it.
    pub total_ns: f64,
}

/// The span aggregator of one traced run.
pub struct Spans {
    epoch: Instant,
    self_ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    /// Whether jobs keep their one-second window of full records at all
    /// (only the first traced pass of a run does).
    pub keep_windows: bool,
    /// While set, every span is also kept as a [`SpanRecord`].
    pub recording: bool,
    records: Vec<SpanRecord>,
    next_id: u64,
    job: u32,
    root: u64,
    root_start_ns: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            self_ns: [0; Layer::ALL.len()],
            calls: [0; Layer::ALL.len()],
            keep_windows: true,
            recording: false,
            records: Vec::new(),
            next_id: 1,
            job: 0,
            root: 0,
            root_start_ns: 0,
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens job `job`'s root span.
    pub fn begin_job(&mut self, job: u32) {
        self.job = job;
        self.root = self.next_id;
        self.next_id += 1;
        self.recording = false;
        self.root_start_ns = self.now_ns();
    }

    /// Closes the current job's root span (always recorded).
    pub fn end_job(&mut self) {
        self.recording = false;
        self.records.push(SpanRecord {
            id: self.root,
            parent: 0,
            job: self.job,
            layer: None,
            start_ns: self.root_start_ns,
            end_ns: self.now_ns(),
        });
    }

    /// Opens a span; hand the result to [`Spans::exit`].
    #[inline(always)]
    pub fn enter(&self) -> u64 {
        self.now_ns()
    }

    /// Closes a span opened at `start_ns` around a call into `layer`.
    #[inline(always)]
    pub fn exit(&mut self, layer: Layer, start_ns: u64) {
        let end_ns = self.now_ns();
        self.self_ns[layer as usize] += end_ns - start_ns;
        self.calls[layer as usize] += 1;
        if self.recording {
            self.records.push(SpanRecord {
                id: self.next_id,
                parent: self.root,
                job: self.job,
                layer: Some(layer),
                start_ns,
                end_ns,
            });
            self.next_id += 1;
        }
    }

    /// Spans closed so far, all layers.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Calls into `layer` so far.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Time inside `layer`'s spans, net of the calibrated in-span cost.
    pub fn self_ns(&self, layer: Layer, cost: SpanCost) -> f64 {
        let raw = self.self_ns[layer as usize] as f64;
        (raw - self.calls[layer as usize] as f64 * cost.inner_ns).max(0.0)
    }

    /// The fully recorded spans, in closing order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Measures what an empty span costs: the best of several batches, on
    /// a private aggregator so the run's own counts stay clean.
    pub fn calibrate() -> SpanCost {
        const BATCH: u64 = 200_000;
        let mut best = SpanCost {
            inner_ns: f64::INFINITY,
            total_ns: f64::INFINITY,
        };
        for _ in 0..7 {
            let mut spans = Spans::default();
            let started = Instant::now();
            for _ in 0..BATCH {
                let t = spans.enter();
                spans.exit(std::hint::black_box(Layer::Metrics), t);
            }
            let total_ns = started.elapsed().as_nanos() as f64 / BATCH as f64;
            let inner_ns = spans.self_ns[Layer::Metrics as usize] as f64 / BATCH as f64;
            if total_ns < best.total_ns {
                best = SpanCost { inner_ns, total_ns };
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_and_records_only_while_recording() {
        let mut spans = Spans::default();
        spans.begin_job(3);
        let t = spans.enter();
        spans.exit(Layer::Pacer, t);
        spans.recording = true;
        let t = spans.enter();
        spans.exit(Layer::ReceiverRtp, t);
        spans.end_job();
        assert_eq!(spans.calls(Layer::Pacer), 1);
        assert_eq!(spans.calls(Layer::ReceiverRtp), 1);
        assert_eq!(spans.total_calls(), 2);
        let records = spans.records();
        assert_eq!(records.len(), 2, "one in-window span plus the job root");
        assert_eq!(records[0].layer, Some(Layer::ReceiverRtp));
        assert_eq!(records[0].parent, records[1].id);
        assert_eq!(
            (records[1].layer, records[1].parent, records[1].job),
            (None, 0, 3)
        );
        assert!(records[1].start_ns <= records[0].start_ns);
        assert!(records[0].end_ns <= records[1].end_ns);
        assert!(records[0].to_jsonl().contains("\"name\": \"receiver.rtp\""));
        assert!(records[1].to_jsonl().contains("\"name\": \"job\""));
    }

    #[test]
    fn self_time_is_net_of_the_calibrated_cost() {
        let cost = Spans::calibrate();
        assert!(cost.inner_ns > 0.0 && cost.inner_ns <= cost.total_ns);
        let mut spans = Spans::default();
        for _ in 0..10_000 {
            let t = spans.enter();
            spans.exit(Layer::Metrics, t);
        }
        // Empty spans: what is left after the subtraction is small against
        // what was measured.
        let raw = spans.self_ns[Layer::Metrics as usize] as f64;
        assert!(spans.self_ns(Layer::Metrics, cost) <= raw);
    }

    #[test]
    fn layer_names_are_the_metric_prefixes() {
        let names: Vec<_> = Layer::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(names[0], "session.setup");
        assert_eq!(names.len(), 11);
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(*layer as usize, i);
        }
    }
}
