//! Seeded input generation. Everything the system under test receives
//! is made here from the run's seed, before the measured loop starts.

use td_conformance::Rng;
use td_decay::Time;

/// A 64-bit mixer (splitmix64 finaliser): spreads consecutive ranks
/// over the key space so key ids carry no order.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The key id of popularity rank `rank` (0 = most popular).
pub fn key_of(rank: u64, seed: u64) -> u64 {
    mix(rank ^ seed.rotate_left(17))
}

/// Zipf(`s`) ranks over `n` keys by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution P(rank r) ∝ (r + 1)^-s over `n` ranks.
    pub fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += ((r + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn draw(&self, rng: &mut Rng) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// Number of ingest sources in the out-of-order feed.
pub const SOURCES: usize = 4;

/// One period of the out-of-order feed, replayed with its true times
/// shifted by `span` per pass so time keeps moving forward.
pub struct OooPool {
    /// Items in arrival order, grouped into per-source chunks.
    pub items: Vec<(Time, u64)>,
    /// `(source, start, end)` of each chunk, in arrival order.
    pub chunks: Vec<(usize, usize, usize)>,
    /// True times lie in `[0, span)`.
    pub span: Time,
    /// Mass per distinct true tick, sorted by tick — the exact oracle's
    /// input for one pass.
    pub tick_mass: Vec<(Time, u64)>,
    /// The items sorted by true time (stable): the same feed as one
    /// in-order stream.
    pub sorted: Vec<(Time, u64)>,
}

/// Builds the out-of-order feed: bursts of 1–19 items per tick (about
/// 10), each item on one of [`SOURCES`] sources. A source delivers its
/// items in `chunk`-sized batches, late by a per-source lag that drifts
/// within 0–24 ticks plus a little jitter, so skew stays inside the
/// 64-tick lateness bound; one item in 500 straggles 64–255 ticks
/// behind and usually arrives beyond the bound.
pub fn ooo_pool(seed: u64, arrivals: usize, chunk: usize) -> OooPool {
    let mut rng = Rng::new(seed ^ 0x000_0001);
    // (delivery key, sequence, true tick, value) per source.
    let mut per_source: Vec<Vec<(u64, u64, Time, u64)>> = vec![Vec::new(); SOURCES];
    let mut lag = [0u64; SOURCES];
    let mut tick: Time = 0;
    let mut n = 0usize;
    while n < arrivals {
        if tick.is_multiple_of(64) {
            for l in &mut lag {
                *l = (*l + rng.below(9)).saturating_sub(4).min(24);
            }
        }
        for _ in 0..rng.range(1, 19) {
            let s = rng.below(SOURCES as u64) as usize;
            let f = rng.range(1, 16);
            let mut d = (tick + lag[s]) * 4 + rng.below(8);
            if rng.below(500) == 0 {
                d += rng.range(64, 255) * 4;
            }
            per_source[s].push((d, n as u64, tick, f));
            n += 1;
        }
        tick += 1;
    }
    let span = tick;
    // (delivery key, source, items) per chunk.
    type Chunk = (u64, usize, Vec<(Time, u64)>);
    let mut chunk_list: Vec<Chunk> = Vec::new();
    for (s, items) in per_source.iter_mut().enumerate() {
        items.sort_unstable();
        for c in items.chunks(chunk) {
            let key = c[c.len() - 1].0;
            chunk_list.push((key, s, c.iter().map(|&(_, _, t, f)| (t, f)).collect()));
        }
    }
    chunk_list.sort_by_key(|(key, s, _)| (*key, *s));
    let mut pool_items = Vec::with_capacity(n);
    let mut chunks = Vec::with_capacity(chunk_list.len());
    for (_, s, c) in chunk_list {
        let start = pool_items.len();
        pool_items.extend_from_slice(&c);
        chunks.push((s, start, pool_items.len()));
    }
    let mut sorted = pool_items.clone();
    sorted.sort_by_key(|&(t, _)| t);
    let mut tick_mass: Vec<(Time, u64)> = Vec::new();
    for &(t, f) in &sorted {
        match tick_mass.last_mut() {
            Some((lt, m)) if *lt == t => *m += f,
            _ => tick_mass.push((t, f)),
        }
    }
    OooPool {
        items: pool_items,
        chunks,
        span,
        tick_mass,
        sorted,
    }
}

/// Ticks of history before the first period: the age of the stream
/// when a run starts.
pub const HISTORY_TICKS: Time = 1 << 30;
/// Successive history items' ages grow by this factor.
const HISTORY_AGE_RATIO: f64 = 1.02;

/// Sparse history in time order over `[0, HISTORY_TICKS)`: one item at
/// each age `⌊r^k⌋` before `HISTORY_TICKS` (r = [`HISTORY_AGE_RATIO`],
/// duplicates dropped), a thousand-odd items in all. A summary whose
/// size grows with the log of the stream's age (WBMH's buckets) starts
/// a run at about the size it holds after a long life, so its size —
/// and the cost of merging and querying it — barely moves within a run,
/// however far the run gets.
pub fn history(seed: u64) -> Vec<(Time, u64)> {
    let mut rng = Rng::new(seed ^ 0x000_0005);
    let mut ages = Vec::new();
    let mut age = 1.0f64;
    while (age as Time) < HISTORY_TICKS {
        if ages.last() != Some(&(age as Time)) {
            ages.push(age as Time);
        }
        age *= HISTORY_AGE_RATIO;
    }
    ages.iter()
        .rev()
        .map(|&a| (HISTORY_TICKS - a, rng.range(1, 16)))
        .collect()
}

/// The out-of-order feed, period by period, after a sparse [`history`].
/// Each of the first `distinct` periods has a pool of its own, so
/// answers sampled there see that many independent stretches of input;
/// later periods replay the first pool, so the input's memory stays
/// bounded however long the run.
pub struct OooFeed {
    /// Items before the first period, in time order.
    pub history: Vec<(Time, u64)>,
    pools: Vec<OooPool>,
}

impl OooFeed {
    /// `distinct` pools of `arrivals` arrivals each (at least one).
    pub fn new(seed: u64, arrivals: usize, chunk: usize, distinct: u64) -> Self {
        let pools = (0..distinct.max(1))
            .map(|i| {
                ooo_pool(
                    seed.wrapping_add(i.wrapping_mul(0x9e37_79b9)),
                    arrivals,
                    chunk,
                )
            })
            .collect();
        OooFeed {
            history: history(seed),
            pools,
        }
    }

    /// The pool period `p` replays.
    pub fn pool(&self, p: u64) -> &OooPool {
        self.pools.get(p as usize).unwrap_or(&self.pools[0])
    }

    /// The tick period `p` starts at: its pool's true times are shifted
    /// by this much.
    pub fn start(&self, p: u64) -> Time {
        let n = self.pools.len() as u64;
        let head: Time = self.pools[..p.min(n) as usize].iter().map(|q| q.span).sum();
        HISTORY_TICKS + head + p.saturating_sub(n) * self.pools[0].span
    }
}
