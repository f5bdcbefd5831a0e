//! Differential test: the scratch-owning schedulers against test-only
//! copies of the allocating code they replaced (`assign_batch`,
//! `PathShare::split`, `interleave`, `used_paths` / `disabled_paths` /
//! `probe_paths` as they stood at `7c5ef18`), over seeded random batches.

use std::collections::BTreeMap;

use converge_net::{PathId, SimDuration, SimTime};
use converge_rtp::QoeFeedback;
use converge_video::{FrameType, PacketKind, StreamId, VideoPacket};

use super::*;
use crate::feedback::PathShare;
use crate::priority::PacketClass;
use crate::test_rng::Rng;

fn ref_interleave(counts: &[(PathId, usize)]) -> Vec<PathId> {
    let total: usize = counts.iter().map(|(_, c)| c).sum();
    let mut out = Vec::with_capacity(total);
    let mut remaining: Vec<(PathId, usize)> = counts.to_vec();
    let quotas: Vec<usize> = remaining.iter().map(|(_, c)| *c).collect();
    for _ in 0..total {
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .filter(|(_, (_, left))| *left > 0)
            .max_by(|(i, (_, a)), (j, (_, b))| {
                let fa = *a as f64 / quotas[*i].max(1) as f64;
                let fb = *b as f64 / quotas[*j].max(1) as f64;
                fa.partial_cmp(&fb)
                    .expect("finite")
                    .then(quotas[*i].cmp(&quotas[*j]))
            })
            .expect("total > 0 implies a path with remaining quota");
        out.push(remaining[idx].0);
        remaining[idx].1 -= 1;
    }
    out
}

fn ref_split(
    share: &PathShare,
    n: usize,
    paths: &[PathMetrics],
    p_max: &BTreeMap<PathId, usize>,
) -> Vec<(PathId, usize)> {
    let enabled: Vec<_> = paths
        .iter()
        .filter(|p| p.enabled && !share.is_disabled(p.id))
        .collect();
    let use_paths: Vec<_> = if enabled.is_empty() {
        paths.iter().collect()
    } else {
        enabled
    };
    let total_rate: u64 = use_paths.iter().map(|p| p.rate_bps).sum();
    if total_rate == 0 || n == 0 {
        return use_paths
            .first()
            .map(|p| vec![(p.id, n)])
            .unwrap_or_default();
    }
    let mut counts: Vec<(PathId, usize)> = Vec::with_capacity(use_paths.len());
    for p in &use_paths {
        let base = (p.rate_bps as f64 / total_rate as f64 * n as f64).round() as i64;
        let adjusted = base + share.offset(p.id);
        let cap = p_max
            .get(&p.id)
            .copied()
            .unwrap_or(usize::MAX)
            .min(i64::MAX as usize) as i64;
        counts.push((p.id, adjusted.clamp(0, cap) as usize));
    }
    let mut assigned: usize = counts.iter().map(|(_, c)| c).sum();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(use_paths[i].rate_bps));
    if assigned < n {
        for &i in &order {
            if assigned >= n {
                break;
            }
            let cap = p_max.get(&counts[i].0).copied().unwrap_or(usize::MAX);
            let room = cap.saturating_sub(counts[i].1);
            let add = room.min(n - assigned);
            counts[i].1 += add;
            assigned += add;
        }
        if assigned < n {
            if let Some(&i) = order.first() {
                counts[i].1 += n - assigned;
            }
            assigned = n;
        }
    }
    while assigned > n {
        let mut progressed = false;
        for &i in order.iter().rev() {
            if assigned <= n {
                break;
            }
            if counts[i].1 > 0 {
                counts[i].1 -= 1;
                assigned -= 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    counts
}

/// The Converge scheduler as it stood: same state, allocating batch path.
struct RefConverge {
    config: ConvergeSchedulerConfig,
    share: PathShare,
    last_probe: BTreeMap<PathId, SimTime>,
    last_feedback_fcd: SimDuration,
    last_negative: BTreeMap<PathId, SimTime>,
}

impl RefConverge {
    fn new(config: ConvergeSchedulerConfig) -> Self {
        RefConverge {
            config,
            share: PathShare::new(),
            last_probe: BTreeMap::new(),
            last_feedback_fcd: SimDuration::from_millis(10),
            last_negative: BTreeMap::new(),
        }
    }

    fn assign_batch(&mut self, packets: &[Schedulable], paths: &[PathMetrics]) -> Vec<Assignment> {
        if packets.is_empty() || paths.is_empty() {
            return Vec::new();
        }
        let k = self.config.max_packet_bytes;
        let usable: Vec<PathMetrics> = paths
            .iter()
            .filter(|p| p.enabled && !self.share.is_disabled(p.id))
            .copied()
            .collect();
        let usable = if usable.is_empty() {
            paths.to_vec()
        } else {
            usable
        };
        let fast = crate::fastpath::select_fast_path_by(
            self.config.fast_path_metric,
            &usable,
            packets.len(),
            k,
        )
        .unwrap_or(usable[0].id);
        let mut budget: BTreeMap<PathId, usize> = usable
            .iter()
            .map(|p| {
                (
                    p.id,
                    p_max(p.rate_bps, self.config.batch_interval, k).max(1),
                )
            })
            .collect();
        let mut assignment: Vec<Option<PathId>> = vec![None; packets.len()];
        let mut priority_idx: Vec<usize> = packets
            .iter()
            .enumerate()
            .filter(|(_, s)| self.config.use_priority && s.class.is_priority())
            .map(|(i, _)| i)
            .collect();
        priority_idx.sort_by_key(|&i| packets[i].class.priority().expect("priority"));
        let cpt = |p: &PathMetrics| crate::fastpath::completion_time(p, packets.len(), k);
        let fast_cpt = usable
            .iter()
            .find(|p| p.id == fast)
            .map(cpt)
            .unwrap_or(f64::INFINITY);
        let mut path_order: Vec<PathId> = {
            let mut v: Vec<&PathMetrics> = usable
                .iter()
                .filter(|p| p.id == fast || cpt(p) <= fast_cpt * 3.0)
                .collect();
            v.sort_by(|a, b| {
                cpt(a)
                    .partial_cmp(&cpt(b))
                    .expect("finite or inf comparable")
            });
            v.into_iter().map(|p| p.id).collect()
        };
        if let Some(pos) = path_order.iter().position(|&p| p == fast) {
            path_order.remove(pos);
        }
        path_order.insert(0, fast);
        for &i in &priority_idx {
            let placed = path_order
                .iter()
                .copied()
                .find(|p| budget.get(p).copied().unwrap_or(0) > 0);
            let path = placed.unwrap_or(fast);
            if let Some(b) = budget.get_mut(&path) {
                *b = b.saturating_sub(1);
            }
            assignment[i] = Some(path);
        }
        let media_idx: Vec<usize> = packets
            .iter()
            .enumerate()
            .filter(|(_, s)| !self.config.use_priority || !s.class.is_priority())
            .map(|(i, _)| i)
            .collect();
        if !media_idx.is_empty() {
            let counts = ref_split(&self.share, media_idx.len(), &usable, &budget);
            if self.config.use_feedback {
                self.share.decay_offsets();
                for p in &usable {
                    let share_zero = counts
                        .iter()
                        .find(|(id, _)| *id == p.id)
                        .map(|(_, c)| *c == 0)
                        .unwrap_or(false);
                    if share_zero && self.share.offset(p.id) < 0 && usable.len() > 1 {
                        self.share.mark_disabled(p.id, self.last_feedback_fcd);
                    }
                }
            }
            let seq = ref_interleave(&counts);
            for (slot, &i) in media_idx.iter().enumerate() {
                assignment[i] = Some(seq.get(slot).copied().unwrap_or(fast));
            }
        }
        assignment
            .into_iter()
            .map(|p| Assignment {
                path: p.unwrap_or(fast),
            })
            .collect()
    }

    fn on_qoe_feedback(&mut self, now: SimTime, fb: &QoeFeedback) {
        if !self.config.use_feedback {
            return;
        }
        let fcd = SimDuration::from_micros(fb.fcd_micros);
        self.last_feedback_fcd = fcd;
        let path = PathId(fb.path_id);
        if fb.alpha < 0 {
            self.last_negative.insert(path, now);
        } else if let Some(&neg_at) = self.last_negative.get(&path) {
            if now.saturating_since(neg_at) < SimDuration::from_secs(2) {
                return;
            }
        }
        self.share.apply_feedback(path, fb.alpha, fcd);
    }

    fn probe_paths(&mut self, now: SimTime, paths: &[PathMetrics]) -> Vec<PathId> {
        let mut out = Vec::new();
        for p in paths {
            if self.share.is_disabled(p.id) {
                let due = match self.last_probe.get(&p.id) {
                    Some(&last) => now.saturating_since(last) >= self.config.probe_interval,
                    None => true,
                };
                if due {
                    self.last_probe.insert(p.id, now);
                    out.push(p.id);
                }
            }
        }
        out
    }

    fn disabled_paths(&self) -> Vec<PathId> {
        self.last_probe
            .keys()
            .copied()
            .filter(|p| self.share.is_disabled(*p))
            .collect()
    }

    fn used_paths(&self, paths: &[PathMetrics]) -> Vec<PathId> {
        let disabled = self.disabled_paths();
        paths
            .iter()
            .filter(|p| p.enabled && !disabled.contains(&p.id))
            .map(|p| p.id)
            .collect()
    }
}

fn ref_srtt(
    n: usize,
    paths: &[PathMetrics],
    batch_interval: SimDuration,
    max_packet_bytes: usize,
) -> Vec<Assignment> {
    let mut order: Vec<&PathMetrics> = paths.iter().filter(|p| p.enabled).collect();
    if order.is_empty() {
        order = paths.iter().collect();
    }
    order.sort_by_key(|p| p.srtt);
    let mut budgets: Vec<(PathId, usize)> = order
        .iter()
        .map(|p| (p.id, p_max(p.rate_bps, batch_interval, max_packet_bytes)))
        .collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let slot = budgets
            .iter_mut()
            .find(|(_, b)| *b > 0)
            .map(|(id, b)| {
                *b -= 1;
                *id
            })
            .unwrap_or(order[0].id);
        out.push(Assignment { path: slot });
    }
    out
}

fn ref_split_by_weight(
    n: usize,
    paths: &[PathMetrics],
    weight: impl Fn(&PathMetrics) -> f64,
) -> Vec<Assignment> {
    let enabled: Vec<&PathMetrics> = paths.iter().filter(|p| p.enabled).collect();
    let use_paths: Vec<&PathMetrics> = if enabled.is_empty() {
        paths.iter().collect()
    } else {
        enabled
    };
    if use_paths.is_empty() || n == 0 {
        return Vec::new();
    }
    let total: f64 = use_paths.iter().map(|p| weight(p)).sum();
    let mut counts: Vec<(PathId, usize)> = use_paths
        .iter()
        .map(|p| {
            let share = if total > 0.0 {
                (weight(p) / total * n as f64).floor() as usize
            } else {
                0
            };
            (p.id, share)
        })
        .collect();
    let mut assigned: usize = counts.iter().map(|(_, c)| c).sum();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| {
        weight(use_paths[b])
            .partial_cmp(&weight(use_paths[a]))
            .expect("finite")
    });
    let mut i = 0;
    while assigned < n {
        counts[order[i % order.len()]].1 += 1;
        assigned += 1;
        i += 1;
    }
    ref_interleave(&counts)
        .into_iter()
        .map(|path| Assignment { path })
        .collect()
}

/// WebRTC-CM's migration state machine as it stood.
struct RefCm {
    active: PathId,
    bad_since: Option<SimTime>,
    blackout_until: Option<SimTime>,
}

impl RefCm {
    fn assign_batch(&mut self, now: SimTime, n: usize, paths: &[PathMetrics]) -> Vec<Assignment> {
        let current = paths.iter().find(|p| p.id == self.active);
        let failing = current
            .map(|p| !p.enabled || p.rate_bps < 1_000_000 || p.loss > 0.15)
            .unwrap_or(true);
        if failing {
            let since = *self.bad_since.get_or_insert(now);
            if now.saturating_since(since) >= SimDuration::from_millis(1_500) {
                if let Some(best) = paths
                    .iter()
                    .filter(|p| p.id != self.active && p.enabled)
                    .max_by(|a, b| {
                        a.goodput_bps()
                            .partial_cmp(&b.goodput_bps())
                            .expect("finite")
                    })
                {
                    self.active = best.id;
                    self.bad_since = None;
                    self.blackout_until = Some(now + SimDuration::from_millis(800));
                }
            }
        } else {
            self.bad_since = None;
        }
        vec![Assignment { path: self.active }; n]
    }
}

fn random_paths(rng: &mut Rng, n_paths: usize) -> Vec<PathMetrics> {
    (0..n_paths)
        .map(|i| PathMetrics {
            id: PathId(i as u8 + 1),
            // Zero rates, equal rates (tie-breaks) and a wide spread.
            rate_bps: match rng.below(8) {
                0 => 0,
                1 => 5_000_000,
                _ => rng.below(20_000_000),
            },
            srtt: SimDuration::from_millis(10 * (1 + rng.below(8))),
            loss: [0.0, 0.0, 0.02, 0.2][rng.below(4) as usize],
            enabled: rng.below(6) != 0,
        })
        .collect()
}

fn random_batch(rng: &mut Rng) -> Vec<Schedulable> {
    use PacketClass::*;
    let len = match rng.below(10) {
        0 => 0,
        1 => 1,
        2 => 150, // a keyframe
        _ => 1 + rng.below(60) as usize,
    };
    // Whole-batch shapes first: FEC only (the second call of every tick),
    // media only, then a mix of every class.
    let shape = rng.below(4);
    (0..len)
        .map(|i| {
            let class = match shape {
                0 => Fec,
                1 => DeltaMedia,
                _ => [
                    Retransmission,
                    Sps,
                    Pps,
                    KeyframeMedia,
                    Fec,
                    DeltaMedia,
                    DeltaMedia,
                ][rng.below(7) as usize],
            };
            Schedulable {
                packet: VideoPacket {
                    stream: StreamId(0),
                    sequence: i as u64,
                    frame_id: 0,
                    gop_id: 0,
                    frame_type: FrameType::Delta,
                    kind: PacketKind::Media { index: 0, count: 1 },
                    size: 1200,
                    capture_time: SimTime::ZERO,
                },
                class,
            }
        })
        .collect()
}

const SEEDS: u64 = 8;
const STEPS: u64 = 2_000;

#[test]
fn converge_scheduler_matches_the_allocating_reference() {
    let (mut probed, mut reenabled) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = Rng(seed);
        let n_paths = [2, 3, 8][(seed % 3) as usize];
        let config = ConvergeSchedulerConfig {
            use_priority: seed % 4 != 1,
            use_feedback: seed % 4 != 2,
            fast_path_metric: [
                crate::fastpath::FastPathMetric::CompletionTime,
                crate::fastpath::FastPathMetric::MinRtt,
                crate::fastpath::FastPathMetric::MaxGoodput,
            ][(seed % 3) as usize],
            ..Default::default()
        };
        let mut new = ConvergeScheduler::new(config);
        let mut old = RefConverge::new(config);
        let mut out = Vec::new();
        for step in 0..STEPS {
            let now = SimTime::from_millis(step * 33);
            let paths = random_paths(&mut rng, n_paths);
            if rng.below(3) == 0 {
                let fb = QoeFeedback {
                    path_id: 1 + rng.below(n_paths as u64) as u8,
                    ssrc: 0,
                    alpha: rng.below(60) as i32 - 45,
                    fcd_micros: rng.below(40_000),
                };
                new.on_qoe_feedback(now, &fb);
                old.on_qoe_feedback(now, &fb);
            }
            let used: Vec<PathId> = paths
                .iter()
                .filter(|p| new.uses_path(p))
                .map(|p| p.id)
                .collect();
            assert_eq!(used, old.used_paths(&paths), "seed {seed} step {step}");
            let batch = random_batch(&mut rng);
            new.assign_batch_into(now, &batch, &paths, &mut out);
            assert_eq!(
                out,
                old.assign_batch(&batch, &paths),
                "seed {seed} step {step}"
            );
            let probes: Vec<PathId> = paths
                .iter()
                .map(|p| p.id)
                .filter(|&p| new.probe_due(now, p))
                .collect();
            assert_eq!(
                probes,
                old.probe_paths(now, &paths),
                "seed {seed} step {step}"
            );
            probed += probes.len();
            let disabled: Vec<PathId> = (1..=n_paths as u8)
                .map(PathId)
                .filter(|&p| new.is_disabled(p))
                .collect();
            assert_eq!(disabled, old.disabled_paths(), "seed {seed} step {step}");
            // Eq. 3 probes come back now and then and re-enable a path.
            if rng.below(8) == 0 {
                let path = PathId(1 + rng.below(n_paths as u64) as u8);
                let (fast, slow) = (
                    SimDuration::from_millis(20 + rng.below(60)),
                    SimDuration::from_millis(20 + rng.below(60)),
                );
                new.on_probe_rtt(now, path, fast, slow);
                reenabled += usize::from(old.share.try_reenable(path, fast, slow));
            }
            for p in &paths {
                assert_eq!(new.share().offset(p.id), old.share.offset(p.id));
                assert_eq!(new.share().is_disabled(p.id), old.share.is_disabled(p.id));
            }
        }
    }
    assert!(
        probed > 100 && reenabled > 100,
        "the disable/probe/re-enable cycle must be exercised: {probed} probes, {reenabled} re-enables"
    );
}

#[test]
fn split_and_interleave_match_the_allocating_reference() {
    for seed in 0..SEEDS {
        let mut rng = Rng(0x5EED ^ seed);
        let n_paths = [2, 3, 8][(seed % 3) as usize];
        let mut share = PathShare::new();
        let (mut counts, mut remaining, mut seq) = (Vec::new(), Vec::new(), Vec::new());
        for step in 0..STEPS {
            let paths = random_paths(&mut rng, n_paths);
            match rng.below(6) {
                0 => share.apply_feedback(
                    PathId(1 + rng.below(n_paths as u64) as u8),
                    rng.below(80) as i32 - 60,
                    SimDuration::from_millis(10),
                ),
                1 => share.mark_disabled(
                    PathId(1 + rng.below(n_paths as u64) as u8),
                    SimDuration::from_millis(10),
                ),
                2 => {
                    for p in &paths {
                        share.try_reenable(p.id, SimDuration::ZERO, SimDuration::ZERO);
                    }
                }
                _ => share.decay_offsets(),
            }
            // Caps for some paths only, zero caps included.
            let mut caps = BTreeMap::new();
            for p in &paths {
                if rng.below(4) != 0 {
                    caps.insert(p.id, rng.below(40) as usize);
                }
            }
            let n = [0, 1, 7, 40, 100][rng.below(5) as usize];
            let want = ref_split(&share, n, &paths, &caps);
            assert_eq!(
                share.split(n, &paths, &caps),
                want,
                "seed {seed} step {step}"
            );
            let mut indexed = vec![usize::MAX; 1 + n_paths];
            for (&p, &c) in &caps {
                indexed[p.index()] = c;
            }
            share.split_into(n, &paths, &indexed, &mut counts);
            assert_eq!(counts, want, "seed {seed} step {step}");
            interleave_into(&counts, &mut remaining, &mut seq);
            assert_eq!(seq, ref_interleave(&counts), "seed {seed} step {step}");
            assert_eq!(interleave(&counts), seq);
        }
    }
}

#[test]
fn baseline_schedulers_match_the_allocating_reference() {
    let interval = SimDuration::from_micros(33_333);
    for seed in 0..SEEDS {
        let mut rng = Rng(0xBA5E ^ seed);
        let n_paths = [2, 3, 8][(seed % 3) as usize];
        let mut single = SinglePathScheduler::new(PathId(2));
        let mut cm = ConnectionMigration::new(PathId(1));
        let mut ref_cm = RefCm {
            active: PathId(1),
            bad_since: None,
            blackout_until: None,
        };
        let mut srtt = SrttScheduler::new(1250, interval);
        let mut mtput = MTputScheduler::new();
        let mut mrtp = MRtpScheduler::new();
        let mut out = Vec::new();
        for step in 0..STEPS {
            let now = SimTime::from_millis(step * 33);
            let paths = random_paths(&mut rng, n_paths);
            let batch = random_batch(&mut rng);
            let n = batch.len();
            let at = format!("seed {seed} step {step}");

            single.assign_batch_into(now, &batch, &paths, &mut out);
            assert_eq!(out, vec![Assignment { path: PathId(2) }; n], "{at}");
            let used: Vec<PathId> = paths
                .iter()
                .filter(|p| single.uses_path(p))
                .map(|p| p.id)
                .collect();
            assert_eq!(used, vec![PathId(2)], "{at}");

            cm.assign_batch_into(now, &batch, &paths, &mut out);
            assert_eq!(out, ref_cm.assign_batch(now, n, &paths), "{at}");
            assert_eq!(cm.active_path(), ref_cm.active, "{at}");
            assert_eq!(
                cm.drop_batch(now),
                ref_cm.blackout_until.is_some_and(|t| now < t),
                "{at}"
            );
            let used: Vec<PathId> = paths
                .iter()
                .filter(|p| cm.uses_path(p))
                .map(|p| p.id)
                .collect();
            assert_eq!(used, vec![ref_cm.active], "{at}");

            srtt.assign_batch_into(now, &batch, &paths, &mut out);
            assert_eq!(out, ref_srtt(n, &paths, interval, 1250), "{at}");

            mtput.assign_batch_into(now, &batch, &paths, &mut out);
            assert_eq!(
                out,
                ref_split_by_weight(n, &paths, |p| p.rate_bps as f64),
                "{at}"
            );
            // The default `uses_path`: every enabled path.
            let used: Vec<PathId> = paths
                .iter()
                .filter(|p| mtput.uses_path(p))
                .map(|p| p.id)
                .collect();
            let enabled: Vec<PathId> = paths.iter().filter(|p| p.enabled).map(|p| p.id).collect();
            assert_eq!(used, enabled, "{at}");

            mrtp.assign_batch_into(now, &batch, &paths, &mut out);
            assert_eq!(
                out,
                ref_split_by_weight(n, &paths, |p| p.goodput_bps().max(1.0)),
                "{at}"
            );
            assert_eq!(mrtp.assign_batch(now, &batch, &paths), out, "{at}");
        }
    }
}
