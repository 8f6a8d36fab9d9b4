//! `LinkTruth` against a model: random cells recorded into the recorder and
//! into a nested `[interval][link][class]` reference must read back the
//! same through every accessor, after warm-up dropping and after a report
//! encode/decode round trip. Out-of-range indices must panic.

use nni_emu::{decode_report, encode_report, LinkTruth, SimReport};
use nni_measure::MeasurementLog;
use nni_topology::LinkId;
use proptest::prelude::*;

/// `cells[t][link][class]` of one counter.
type Grid = Vec<Vec<Vec<u64>>>;

/// The reference: both counters as nested vectors.
struct Model {
    n_links: usize,
    n_classes: usize,
    offered: Grid,
    dropped: Grid,
}

impl Model {
    fn new(n_links: usize, n_classes: usize) -> Model {
        Model {
            n_links,
            n_classes,
            offered: Vec::new(),
            dropped: Vec::new(),
        }
    }

    fn ensure(&mut self, t: usize) {
        while self.offered.len() <= t {
            self.offered
                .push(vec![vec![0; self.n_classes]; self.n_links]);
            self.dropped
                .push(vec![vec![0; self.n_classes]; self.n_links]);
        }
    }

    fn drop_warmup(&mut self, k: usize) {
        let k = k.min(self.offered.len());
        self.offered.drain(..k);
        self.dropped.drain(..k);
    }

    fn congestion_probability(&self, l: usize, c: usize, threshold: f64) -> f64 {
        let (mut active, mut congested) = (0usize, 0usize);
        for (off, drop) in self.offered.iter().zip(&self.dropped) {
            let (off, drop) = (off[l][c], drop[l][c]);
            if off == 0 {
                continue;
            }
            active += 1;
            if drop as f64 > threshold * off as f64 {
                congested += 1;
            }
        }
        if active == 0 {
            0.0
        } else {
            congested as f64 / active as f64
        }
    }
}

/// Checks every accessor of `truth` against `model`.
fn check(truth: &LinkTruth, model: &Model) {
    assert_eq!(truth.interval_count(), model.offered.len());
    assert_eq!(truth.link_count(), model.n_links);
    assert_eq!(truth.class_count(), model.n_classes);
    for l in 0..model.n_links {
        let link = LinkId(l);
        let mut total = 0;
        for c in 0..model.n_classes {
            let class = c as u8;
            for t in 0..model.offered.len() {
                assert_eq!(truth.offered_at(t, link, class), model.offered[t][l][c]);
                assert_eq!(truth.dropped_at(t, link, class), model.dropped[t][l][c]);
            }
            let offered: u64 = model.offered.iter().map(|i| i[l][c]).sum();
            let dropped: u64 = model.dropped.iter().map(|i| i[l][c]).sum();
            assert_eq!(truth.class_offered(link, class), offered);
            assert_eq!(truth.class_dropped(link, class), dropped);
            total += dropped;
            for threshold in [0.0, 0.01, 0.3] {
                assert_eq!(
                    truth
                        .congestion_probability(link, class, threshold)
                        .to_bits(),
                    model.congestion_probability(l, c, threshold).to_bits()
                );
            }
        }
        assert_eq!(truth.total_dropped(link), total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_grid_matches_nested_reference(
        n_links in 1usize..5,
        n_classes in 1usize..4,
        records in prop::collection::vec((0usize..12, 0usize..5, 0usize..4, 0u8..3), 0..200),
        warmup in 0usize..14,
    ) {
        let mut truth = LinkTruth::new(n_links, n_classes);
        let mut model = Model::new(n_links, n_classes);
        for (t, l, c, kind) in records {
            let (l, c) = (l % n_links, c % n_classes);
            model.ensure(t);
            // Offers outnumber drops two to one, so thresholds split cells.
            if kind < 2 {
                truth.record_offered(t, LinkId(l), c as u8);
                model.offered[t][l][c] += 1;
            } else {
                truth.record_dropped(t, LinkId(l), c as u8);
                model.dropped[t][l][c] += 1;
            }
        }
        check(&truth, &model);

        truth.drop_warmup(warmup);
        model.drop_warmup(warmup);
        check(&truth, &model);

        let report = SimReport {
            log: MeasurementLog::new(1, 0.1),
            link_truth: truth,
            queue_traces: Vec::new(),
            completed_flows: 0,
            segments_sent: 0,
            segments_delivered: 0,
            segments_dropped: 0,
        };
        let decoded = decode_report(&encode_report(&report)).expect("round trip decodes");
        prop_assert_eq!(&decoded, &report);
        check(&decoded.link_truth, &model);
    }
}

fn recorded() -> LinkTruth {
    let mut truth = LinkTruth::new(2, 2);
    truth.record_offered(1, LinkId(1), 1);
    truth
}

#[test]
#[should_panic(expected = "out of range")]
fn offered_at_panics_on_a_link_past_the_last() {
    recorded().offered_at(0, LinkId(2), 0);
}

#[test]
#[should_panic(expected = "out of range")]
fn dropped_at_panics_on_a_class_past_the_last() {
    recorded().dropped_at(0, LinkId(0), 2);
}

#[test]
#[should_panic(expected = "out of range")]
fn offered_at_panics_on_an_unrecorded_interval() {
    recorded().offered_at(2, LinkId(0), 0);
}

#[test]
#[should_panic(expected = "out of range")]
fn class_offered_panics_on_a_class_past_the_last() {
    recorded().class_offered(LinkId(0), 2);
}

#[test]
#[should_panic(expected = "out of range")]
fn congestion_probability_panics_on_a_link_past_the_last() {
    recorded().congestion_probability(LinkId(2), 0, 0.01);
}

#[test]
#[should_panic(expected = "out of range")]
fn total_dropped_panics_on_a_link_past_the_last() {
    recorded().total_dropped(LinkId(2));
}

#[test]
#[should_panic(expected = "out of range")]
fn record_offered_panics_on_a_class_past_the_last() {
    recorded().record_offered(0, LinkId(0), 2);
}
