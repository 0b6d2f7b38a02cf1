//! Exact strategy optimization: a Pareto-frontier DP that certifies the
//! GA, a Lagrangian sweep that seeds it, and [`serving_search`], the
//! search every serving path runs.
//!
//! # Why Eq. (17) admits an exact solver
//!
//! The GA maximizes `Score = c(T) · (B/T)² / (EA/T)` where `T` is the
//! strategy's predicted time, `EA` its AICore energy, `B` the baseline
//! time, and `c(T)` the ×2 bonus for meeting the performance bound
//! (`T ≤ B/(1−ℓ)`). Algebraically `Score = c(T) · B²/(T·EA)`: within
//! each bonus region the score depends on the genome only through
//! `(T, EA)`, strictly decreasing in both. Both `T` and `EA` are sums of
//! independent per-stage cells — the objective is **per-stage separable**
//! — so the optimum lies on the Pareto frontier of achievable `(T, EA)`
//! pairs, and that frontier composes: the frontier of a stage range is
//! a (pruned) pairwise combination of its halves' frontiers.
//!
//! [`solve`] runs this DP bottom-up over the **same pairwise summation
//! tree** [`StageTable::evaluate`] uses, combining candidate sums with
//! the identical `left + right` additions — so every frontier point's
//! `(T, EA)` is bit-identical to a full evaluation of its reconstructed
//! genome, and the reported optimum is achieved bit-exactly by the
//! returned genes. Weak-dominance pruning is sound here because IEEE
//! addition is monotone: a dominated partial sum stays dominated through
//! every subsequent addition.
//!
//! The result is **certified** (a true global optimum) when the thermal
//! fix point cannot perturb the scored quantities — `k_c_per_w ≤ 0`
//! (synthetic tables) or `γ_aicore = 0` — and the frontier stays within
//! its size caps. Otherwise [`solve`] falls back to evaluating the
//! [`lagrangian_seeds`] candidates through the real evaluation path and
//! reports `certified = false`.
//!
//! # The Lagrangian sweep
//!
//! Relaxing the latency bound with a multiplier λ ≥ 0 decomposes the
//! problem into per-stage argmins of `e + λ·t`. Sweeping λ over the
//! breakpoint slopes `Δe/Δt` of each stage's option set traces the whole
//! family of relaxation optima — a ladder of genomes from min-energy
//! (λ=0) to min-time (λ→∞). [`lagrangian_seeds`] returns the best-scoring
//! distinct rungs (each repaired into the latency budget when needed):
//! on large schedules these seed the GA population with near-optimal
//! individuals that point mutation alone could not rediscover.
//!
//! Few argmins move from one rung to the next (2–4 % of the stage-rungs
//! of a 48-stage fleet table or of GPT-3's 960 stages), so the sweep
//! keeps each stage's argmin and rescans a stage only at the rung its
//! due list names. A stage skips to its next crossing only when a
//! margin test at both ends of the skip proves that no rounding of
//! `e + λ·t` can move its argmin in between; [`lagrangian_seeds`] gives
//! the argument. Every rung stays bit-identical to a full rescan.
//!
//! # The serving search
//!
//! On the tables this crate serves, the GA's generations add nothing
//! over the ladder's best rung, at many times its cost. [`serving_search`]
//! therefore runs [`solve`], scores each warm-start seed next to its
//! answer and, when the answer is not certified, climbs from the best
//! candidate by coordinate ascent (`ascend`), which the GA's memetic
//! refinement also runs. The result comes back as a [`GaOutcome`].

use crate::budget::LossBudget;
use crate::engine::IncrementalEval;
use crate::ga::{score, GaOutcome};
use crate::strategy::{DvfsStrategy, Evaluation, StageTable};
use npu_obs::{Event, ObserverHandle};
use npu_sim::FreqMhz;
use std::cmp::Reverse;

/// The DP abandons certification when any node's pruned frontier
/// exceeds this.
const MAX_FRONTIER: usize = 1 << 16;

/// The DP abandons certification once its merges would enumerate more
/// candidate pairs than this, summed over the whole tree. The pairs are
/// what an attempt pays for, so this bounds what an attempt that cannot
/// certify wastes before the Lagrangian fallback. Random 2–9-stage
/// tables certify within 84k pairs in 99.95 % of cases; real uncoupled
/// tables (BERT, ResNet, GPT-3) never certify, and at this cap give up in
/// about 1 ms.
const MAX_MERGE_PAIRS: usize = 100_000;

/// Result of [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExactOutcome {
    /// The optimal (or best-found, when uncertified) genome.
    pub genes: Vec<usize>,
    /// Its evaluation through [`StageTable::evaluate`].
    pub eval: Evaluation,
    /// Its Eq. (17) score — bit-exactly `score(&eval, baseline, loss)`.
    pub score: f64,
    /// Whether the result is a certified global optimum.
    pub certified: bool,
}

/// One rung of the Lagrangian ladder: a candidate genome with its
/// evaluation and score.
#[derive(Debug, Clone, PartialEq)]
pub struct LagrangianSeed {
    /// The candidate genome.
    pub genes: Vec<usize>,
    /// Its evaluation.
    pub eval: Evaluation,
    /// Its Eq. (17) score.
    pub score: f64,
}

/// A `(time, aicore-energy)` partial sum with backpointers into the
/// child frontiers it was combined from.
#[derive(Debug, Clone, Copy)]
struct Point {
    time: f64,
    ea: f64,
    /// Leaf: the gene. Internal: index into the left child's frontier.
    left: u32,
    /// Internal: index into the right child's frontier. Unused on leaves.
    right: u32,
}

/// One node of the DP tree, mirroring the evaluate() summation tree.
#[derive(Debug)]
struct Node {
    frontier: Vec<Point>,
    /// `None` on leaves (real or padding).
    children: Option<Box<(Node, Node)>>,
    /// `Some(stage)` on real leaves; `None` on padding and internal nodes.
    stage: Option<usize>,
}

/// Sorts candidates by `(time, ea)` and keeps the weak Pareto frontier:
/// strictly increasing time, strictly decreasing ea; exact ties keep the
/// first occurrence (deterministic — `total_cmp` is a total order, and
/// candidates are pushed in `(left, right)` order, which breaks ties
/// the way a stable sort would).
fn prune(points: &mut Vec<Point>) {
    points.sort_unstable_by(|a, b| {
        a.time
            .total_cmp(&b.time)
            .then(a.ea.total_cmp(&b.ea))
            .then(a.left.cmp(&b.left))
            .then(a.right.cmp(&b.right))
    });
    let mut kept = 0;
    let mut best_ea = f64::INFINITY;
    for i in 0..points.len() {
        if points[i].ea.total_cmp(&best_ea).is_lt() {
            best_ea = points[i].ea;
            points.swap(kept, i);
            kept += 1;
        }
    }
    points.truncate(kept);
}

/// Builds the frontier tree over leaf range `[lo, lo + width)` (width a
/// power of two; out-of-range leaves are zero padding), adding the
/// candidate pairs its merges enumerate to `pairs`. Returns `None` when a
/// cap is exceeded.
fn build(table: &StageTable, lo: usize, width: usize, pairs: &mut usize) -> Option<Node> {
    if width == 1 {
        let n = table.n_stages();
        if lo >= n {
            return Some(Node {
                frontier: vec![Point {
                    time: 0.0,
                    ea: 0.0,
                    left: 0,
                    right: 0,
                }],
                children: None,
                stage: None,
            });
        }
        let mut frontier: Vec<Point> = (0..table.n_freqs())
            .map(|g| {
                let cell = table.cell(lo, g);
                Point {
                    time: cell.time,
                    ea: cell.ea,
                    left: g as u32,
                    right: 0,
                }
            })
            .collect();
        prune(&mut frontier);
        return Some(Node {
            frontier,
            children: None,
            stage: Some(lo),
        });
    }
    let half = width / 2;
    let left = build(table, lo, half, pairs)?;
    let right = build(table, lo + half, half, pairs)?;
    let merge_pairs = left.frontier.len().checked_mul(right.frontier.len())?;
    *pairs = pairs
        .checked_add(merge_pairs)
        .filter(|&total| total <= MAX_MERGE_PAIRS)?;
    let mut frontier = Vec::with_capacity(merge_pairs);
    for (li, lp) in left.frontier.iter().enumerate() {
        for (ri, rp) in right.frontier.iter().enumerate() {
            // The exact additions Sums::add performs for these fields,
            // in the same left + right order.
            frontier.push(Point {
                time: lp.time + rp.time,
                ea: lp.ea + rp.ea,
                left: li as u32,
                right: ri as u32,
            });
        }
    }
    prune(&mut frontier);
    if frontier.len() > MAX_FRONTIER {
        return None;
    }
    Some(Node {
        frontier,
        children: Some(Box::new((left, right))),
        stage: None,
    })
}

/// Walks backpointers from a root frontier index down to the genes.
fn reconstruct(node: &Node, idx: usize, genes: &mut [usize]) {
    let p = node.frontier[idx];
    match (&node.children, node.stage) {
        (Some(children), _) => {
            reconstruct(&children.0, p.left as usize, genes);
            reconstruct(&children.1, p.right as usize, genes);
        }
        (None, Some(stage)) => genes[stage] = p.left as usize,
        (None, None) => {} // padding leaf
    }
}

/// Whether the thermal fix point can change a scored quantity: scoring
/// reads only time (never adjusted) and AICore energy (adjusted by
/// `γ_aicore · ΔT · ∫V dt` when the fix point is active).
fn thermal_affects_score(table: &StageTable) -> bool {
    let c = table.coupling();
    c.k_c_per_w > 0.0 && c.gamma_aicore != 0.0
}

/// Finds the exact Eq. (17) optimum at loss target `loss` (the GA's
/// `perf_loss_target`) when certifiable, the best Lagrangian candidate
/// otherwise. See the module docs for the certification conditions.
///
/// # Panics
///
/// Panics if the table has no frequency points.
#[must_use]
pub fn solve(table: &StageTable, loss: f64) -> ExactOutcome {
    let n = table.n_stages();
    assert!(table.n_freqs() >= 1, "table must have frequency points");
    let baseline_time = table.baseline().time_us;
    if n == 0 {
        return ExactOutcome {
            genes: Vec::new(),
            eval: table.evaluate(&[]),
            score: 0.0,
            certified: true,
        };
    }

    if !thermal_affects_score(table) {
        if let Some(root) = build(table, 0, n.next_power_of_two(), &mut 0) {
            // Score every frontier point directly from its (T, EA) sums:
            // with the fix point inert for scoring, these are exactly the
            // evaluation's time and AICore energy.
            let (best_idx, best_score) = root
                .frontier
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let e = Evaluation {
                        time_us: p.time,
                        aicore_energy_wus: p.ea,
                        soc_energy_wus: 0.0,
                    };
                    (i, score(&e, baseline_time, loss))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap_or((0, 0.0));
            let mut genes = vec![0usize; n];
            reconstruct(&root, best_idx, &mut genes);
            let eval = table.evaluate(&genes);
            debug_assert_eq!(
                eval.time_us.to_bits(),
                root.frontier[best_idx].time.to_bits()
            );
            return ExactOutcome {
                score: best_score,
                genes,
                eval,
                certified: true,
            };
        }
    }

    // Uncertified fallback: best Lagrangian candidate through the real
    // evaluation path (thermal fix point included): the same pick as
    // `max_by` over `lagrangian_seeds(table, loss, 64)`, decoding only
    // the winner.
    let ladder = ladder(table, loss);
    let best = ladder
        .order
        .iter()
        .take(64)
        .max_by(|&&a, &&b| ladder.scored[a].1.total_cmp(&ladder.scored[b].1))
        .map(|&rung| ladder.seed(rung))
        .unwrap_or_else(|| {
            let genes = vec![table.n_freqs() - 1; n];
            let eval = table.evaluate(&genes);
            let s = score(&eval, baseline_time, loss);
            LagrangianSeed {
                genes,
                eval,
                score: s,
            }
        });
    ExactOutcome {
        genes: best.genes,
        eval: best.eval,
        score: best.score,
        certified: false,
    }
}

/// The search behind every serving path: [`solve`] at `loss`, then
/// each non-empty warm seed — a per-stage frequency vector, e.g. a fleet
/// neighbour's strategy transferred across devices — mapped onto the
/// table and scored as one more candidate. A seed maps each frequency to
/// the nearest grid point at or above it and, when its length differs
/// from the table's stage count, stretches or compresses by proportional
/// stage index, so a strategy searched under another stage split still
/// lands. The highest-scoring candidate wins; a seed
/// must score strictly higher to displace the solver's answer. Unless
/// the solver certified its answer, coordinate ascent then climbs from
/// the winner to a coordinate-wise optimum, inside the bound
/// `T ≤ B/(1−ℓ)` when the winner meets it. Emits one
/// [`Event::SearchSolved`].
///
/// The outcome reads like a GA's: `score_trace` is `[best_score]`, and
/// `evaluations` counts the candidates plus the ascent's probes.
/// `best_eval` is bit-identical to [`StageTable::evaluate`] of the
/// returned strategy's genes.
///
/// # Panics
///
/// Panics if the table has no frequency points.
#[must_use]
pub fn serving_search(
    table: &StageTable,
    loss: f64,
    warm_seeds: &[Vec<FreqMhz>],
    obs: &ObserverHandle,
) -> GaOutcome {
    let solved = solve(table, loss);
    let baseline_time = table.baseline().time_us;
    let (mut genes, mut eval, mut best_score) = (solved.genes, solved.eval, solved.score);
    let mut candidates = 1;
    let mut seed_genes = Vec::with_capacity(table.n_stages());
    for seed in warm_seeds.iter().filter(|s| !s.is_empty()) {
        table.map_freqs(seed, &mut seed_genes);
        let seed_eval = table.evaluate(&seed_genes);
        let seed_score = score(&seed_eval, baseline_time, loss);
        candidates += 1;
        if seed_score > best_score {
            std::mem::swap(&mut genes, &mut seed_genes);
            eval = seed_eval;
            best_score = seed_score;
        }
    }
    // An uncertified answer may sit a step off a coordinate-wise optimum
    // (the ladder relaxes the thermal fix point away); climb to it.
    let mut probes = 0;
    if !solved.certified {
        (eval, best_score, probes) = ascend(table, &mut genes, baseline_time, loss);
    }
    obs.emit(Event::SearchSolved {
        stages: table.n_stages(),
        candidates,
        certified: solved.certified,
        best_score,
    });
    let freqs: Vec<FreqMhz> = genes.iter().map(|&g| table.freqs()[g]).collect();
    GaOutcome {
        strategy: DvfsStrategy::new(table.stages().to_vec(), freqs),
        best_eval: eval,
        best_score,
        score_trace: vec![best_score],
        evaluations: candidates + probes,
    }
}

/// Coordinate ascent on the Eq. (17) score against `baseline_time` from
/// `genes`: sweeps the stages in order, moving each to the gene that
/// scores highest with every other stage fixed, until a sweep moves
/// nothing. Every move raises the score, so it ends. A start that meets
/// the [`LossBudget`] bound never leaves it. Returns the end point's
/// evaluation (bit-identical to [`StageTable::evaluate`]) and score, and
/// the probes it took.
pub(crate) fn ascend(
    table: &StageTable,
    genes: &mut [usize],
    baseline_time: f64,
    loss: f64,
) -> (Evaluation, f64, usize) {
    let meets = |e: &Evaluation| LossBudget(loss).meets(baseline_time, e.time_us);
    let mut inc = IncrementalEval::new(table, genes);
    let start = inc.eval();
    let keep_budget = meets(&start);
    let (mut best, mut probes) = (score(&start, baseline_time, loss), 0);
    loop {
        let mut moved = false;
        for (s, gene) in genes.iter_mut().enumerate() {
            let mut pick = None;
            for g in (0..table.n_freqs()).filter(|&g| g != *gene) {
                let trial = inc.probe(s, g);
                probes += 1;
                if keep_budget && !meets(&trial) {
                    continue;
                }
                let trial_score = score(&trial, baseline_time, loss);
                if trial_score > best {
                    best = trial_score;
                    pick = Some(g);
                }
            }
            if let Some(g) = pick {
                *gene = g;
                inc.set_gene(s, g);
                moved = true;
            }
        }
        if !moved {
            return (inc.eval(), best, probes);
        }
    }
}

/// Sweeps the Lagrangian multiplier λ over the per-stage breakpoint
/// slopes `Δe/Δt`, collecting the per-stage argmin genomes of
/// `e + λ·t`. Over-budget rungs are repaired by greedily upgrading the
/// stage with the best time-saved-per-energy-spent ratio until the time
/// is at most the [`LossBudget`] ceiling `B/(1−loss)` or no upgrade
/// helps. Returns the distinct candidates sorted by score, best first
/// (equal scores in ascending gene order), truncated to `max_seeds`.
///
/// A target that sets no bound (`loss ≥ 1` or NaN) leaves nothing to
/// repair into, so the ladder is empty; callers then seed nothing from
/// it.
///
/// # Repair cost
///
/// A stage's upgrade ratio depends only on its own current gene and its
/// minimum-time gene, and upgrading one stage changes no other stage's
/// ratio. The greedy choice therefore follows one fixed order per rung:
/// ratio descending, ties to the lowest stage index, and a NaN ratio
/// (only non-finite cells produce one) taken as soon as it belongs to
/// the lowest-index candidate left. The call ranks every `(stage, gene)`
/// upgrade once, at the first over-budget rung; such a rung marks the
/// upgrades a copy of its genes holds and takes them in rank order,
/// checking the budget on the time sums alone (the thermal fix point
/// never changes time). That is O(n) per repaired rung plus O(log n)
/// per upgraded stage, and bit-identical to rescanning every stage and
/// re-evaluating the whole table after each upgrade.
///
/// The argmins are kept from rung to rung: a stage is rescanned only at
/// the rung its due list names, a stage whose gene did not move leaves
/// the time sums alone, a rung on which no gene moved repeats the one
/// before it and is skipped, and each distinct rung is evaluated once,
/// incrementally from the last. After a scan at rung `j` picks gene `a`,
/// the stage is next due after rung `k`, the last rung below its
/// crossing `min{(e_g − e_a)/(t_a − t_g) : t_g < t_a}`, if for every
/// `g ≠ a` the scan's own f64 values `v = e + λ * t` satisfy
/// `v_g > v_a * (1 + 2⁻⁴⁹)` at both `λ_j` and `λ_k`; otherwise it is due
/// at `j + 1`. The λ = `f64::MAX` rung, and every stage outside the
/// guard below, is scanned at every rung.
///
/// The skip changes no rung. The guard: every cell is finite,
/// non-negative and zero or normal, and every positive `λ·t` of the
/// sweep is normal (with `e` and `λ·t` below `f64::MAX / 8`). Under it
/// both roundings in `v` are relative, so with `u = 2⁻⁵³`,
/// `(1−u)²·x ≤ v ≤ (1+u)²·x` for the exact `x = e + λt`, and every `v`
/// is zero or normal. The test's own product is then off by at most a
/// factor `1 − u`, so passing it at λ means
/// `x_g > x_a·(1 + 2⁻⁴⁹)(1−u)³/(1+u)²`, which gives
/// `(1−u)²·x_g − (1+u)²·x_a > 0` because
/// `(1 + 2⁻⁴⁹)(1 − u) > ((1+u)/(1−u))⁴`. That expression is affine in
/// λ, so passing at `λ_j` and `λ_k` keeps it positive at every rung in
/// between, where `v_g ≥ (1−u)²·x_g > (1+u)²·x_a ≥ v_a`: every `g ≠ a`
/// lies strictly above `v_a`, and the first-minimum argmin is `a` again.
/// The crossing only picks `k`; the two tests alone carry the argument.
///
/// # Panics
///
/// Panics if the table has no frequency points.
#[must_use]
pub fn lagrangian_seeds(table: &StageTable, loss: f64, max_seeds: usize) -> Vec<LagrangianSeed> {
    let ladder = ladder(table, loss);
    ladder
        .order
        .iter()
        .take(max_seeds)
        .map(|&rung| ladder.seed(rung))
        .collect()
}

/// The distinct rungs of [`lagrangian_seeds`]' ladder.
struct Ladder {
    /// Bytes per gene of a key.
    width: usize,
    /// Every distinct rung's genes big-endian in `width` bytes each (so
    /// byte order is gene order), one key after another in sweep order.
    keys: Vec<u8>,
    /// Each rung's evaluation and score, in sweep order.
    scored: Vec<(Evaluation, f64)>,
    /// The rungs by score descending, then genes ascending.
    order: Vec<usize>,
}

impl Ladder {
    /// Rung `rung`'s key.
    fn key(&self, rung: usize) -> &[u8] {
        let len = self.keys.len() / self.scored.len();
        &self.keys[rung * len..(rung + 1) * len]
    }

    /// Rung `rung` as a seed.
    fn seed(&self, rung: usize) -> LagrangianSeed {
        let (eval, score) = self.scored[rung];
        LagrangianSeed {
            genes: self
                .key(rung)
                .chunks(self.width)
                .map(|bytes| bytes.iter().fold(0, |g, &b| g << 8 | usize::from(b)))
                .collect(),
            eval,
            score,
        }
    }
}

/// No stage, gene or rung: the end of a due list, a stage not yet
/// scanned, a free [`KeyIndex`] slot.
const NONE: usize = usize::MAX;

/// `1 + 2⁻⁴⁹`: how far above the minimum every other λ-value must lie
/// for a stage's argmin to be carried across rungs.
const MARGIN: f64 = 1.0 + 8.0 * f64::EPSILON;

/// The distinct rungs of [`lagrangian_seeds`]' ladder, sorted.
fn ladder(table: &StageTable, loss: f64) -> Ladder {
    let n = table.n_stages();
    let m = table.n_freqs();
    assert!(m >= 1, "table must have frequency points");
    // Just enough bytes per gene for the alphabet.
    let width = (usize::BITS - (m - 1).leading_zeros()).div_ceil(8).max(1) as usize;
    let mut ladder = Ladder {
        width,
        keys: Vec::new(),
        scored: Vec::new(),
        order: Vec::new(),
    };
    if n == 0 {
        return ladder;
    }
    let baseline_time = table.baseline().time_us;
    let Some(budget) = LossBudget(loss).ceiling(baseline_time) else {
        return ladder;
    };
    // Rung `j < rungs` sits at λ = `sweep[j]`, rung `rungs` at f64::MAX.
    let sweep = lambda_sweep(table);
    let rungs = sweep.len();
    // The sweep's least positive and greatest λ (`sweep[0]` is 0).
    let (lo, hi) = (
        sweep.get(1).copied().unwrap_or(f64::INFINITY),
        sweep[rungs - 1],
    );
    let guarded: Vec<bool> = (0..n)
        .map(|s| {
            let (time, ea) = table.rows(s);
            guarded(time, ea, lo, hi)
        })
        .collect();

    // Due lists: `head[j]` is the first stage to rescan at rung `j` and
    // `next[s]` the stage after `s` in its list. Every stage starts due
    // at rung 0.
    let mut head = vec![NONE; rungs];
    head[0] = 0;
    let mut next: Vec<usize> = (1..n).chain([NONE]).collect();
    // The rung's argmins before repair, and their times.
    let mut genes = vec![NONE; n];
    let mut tree = TimeTree::new(n);
    // The repair's ranking and the copy of a rung it walks.
    let mut walk: Option<(Repair, Vec<usize>, TimeTree)> = None;
    let mut index = KeyIndex::new(rungs + 1);
    let mut key = vec![0u8; n * width];
    let mut inc: Option<IncrementalEval> = None;
    for j in 0..=rungs {
        let mut moved = false;
        let mut place = |s: usize, g: usize| {
            if genes[s] != g {
                genes[s] = g;
                tree.set(s, table.rows(s).0[g]);
                moved = true;
            }
        };
        if j == rungs {
            for s in 0..n {
                place(s, argmin(table.rows(s).0.iter().copied()));
            }
        } else {
            let lambda = sweep[j];
            let mut s = head[j];
            while s != NONE {
                let after = next[s];
                let (time, ea) = table.rows(s);
                let a = argmin(ea.iter().zip(time).map(|(e, t)| e + lambda * t));
                place(s, a);
                let due = if guarded[s] {
                    due_after(time, ea, a, &sweep, j)
                } else {
                    j + 1
                };
                if due < rungs {
                    next[s] = head[due];
                    head[due] = s;
                }
                s = after;
            }
        }
        if !moved {
            continue;
        }
        let rung: &[usize] = if tree.total() > budget {
            let (repair, walked, walked_tree) =
                walk.get_or_insert_with(|| (Repair::rank(table), genes.clone(), TimeTree::new(n)));
            walked.copy_from_slice(&genes);
            walked_tree.nodes.copy_from_slice(&tree.nodes);
            repair.walk(table, walked, walked_tree, budget);
            walked
        } else {
            &genes
        };
        for (bytes, &g) in key.chunks_exact_mut(width).zip(rung) {
            for (shift, byte) in bytes.iter_mut().rev().enumerate() {
                *byte = (g >> (8 * shift)) as u8;
            }
        }
        if index.insert(&key, &ladder.keys) {
            ladder.keys.extend_from_slice(&key);
            let eval = match &mut inc {
                Some(inc) => {
                    inc.assign(rung);
                    inc.eval()
                }
                None => inc.insert(IncrementalEval::new(table, rung)).eval(),
            };
            ladder
                .scored
                .push((eval, score(&eval, baseline_time, loss)));
        }
    }
    // Free the ranking before the seeds' genes are allocated.
    drop(walk);
    let mut order: Vec<usize> = (0..ladder.scored.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        let score = |r: usize| ladder.scored[r].1;
        score(b)
            .total_cmp(&score(a))
            .then_with(|| ladder.key(a).cmp(ladder.key(b)))
    });
    ladder.order = order;
    ladder
}

/// Whether a stage with rows `(time, ea)` meets the guard of
/// [`lagrangian_seeds`]' skip at every rung λ in `{0} ∪ [lo, hi]`:
/// every cell finite, non-negative and zero or normal, and every
/// positive `λ·t` normal, with `e` and `λ·t` below `f64::MAX / 8`.
fn guarded(time: &[f64], ea: &[f64], lo: f64, hi: f64) -> bool {
    const HUGE: f64 = f64::MAX / 8.0;
    let cell = |x: f64| x.is_sign_positive() && (x == 0.0 || x.is_normal()) && x <= HUGE;
    // A rounded `t * lo` at or above 2⁻¹⁰²¹ leaves the exact product
    // above `f64::MIN_POSITIVE`.
    time.iter().chain(ea).all(|&x| cell(x))
        && time
            .iter()
            .all(|&t| t == 0.0 || (t * lo >= 2.0 * f64::MIN_POSITIVE && t * hi <= HUGE))
}

/// The rung at which a guarded stage with rows `(time, ea)`, scanned at
/// rung `j` of `sweep` with argmin `a`, is due again: after the last
/// rung `k` below its crossing when the margin test passes at `λ_j` and
/// `λ_k`, else `j + 1` (see [`lagrangian_seeds`]).
fn due_after(time: &[f64], ea: &[f64], a: usize, sweep: &[f64], j: usize) -> usize {
    let clears = |lambda: f64| {
        let floor = (ea[a] + lambda * time[a]) * MARGIN;
        (0..time.len()).all(|g| g == a || ea[g] + lambda * time[g] > floor)
    };
    if !clears(sweep[j]) {
        return j + 1;
    }
    let crossing = (0..time.len())
        .filter(|&g| time[g] < time[a])
        .map(|g| (ea[g] - ea[a]) / (time[a] - time[g]))
        .fold(f64::INFINITY, f64::min);
    let k = j + sweep[j + 1..].partition_point(|&l| l < crossing);
    if k > j && clears(sweep[k]) {
        k + 1
    } else {
        j + 1
    }
}

/// An open-addressing hash index over the keys of a [`Ladder`], sized
/// once for the most keys a sweep can make.
struct KeyIndex {
    /// A power-of-two table of key numbers; [`NONE`] marks a free slot.
    slots: Vec<usize>,
}

impl KeyIndex {
    fn new(capacity: usize) -> Self {
        Self {
            slots: vec![NONE; (2 * capacity).next_power_of_two()],
        }
    }

    /// Whether `key` is not yet among the equal-length keys laid end to
    /// end in `keys`; if so, it is indexed as the next of them, and the
    /// caller appends it.
    fn insert(&mut self, key: &[u8], keys: &[u8]) -> bool {
        // FxHash over 8-byte words; the table uses the top bits.
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut hash = 0u64;
        for chunk in key.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            hash = (hash.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
        }
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> 32) as usize & mask;
        loop {
            let rung = self.slots[slot];
            if rung == NONE {
                self.slots[slot] = keys.len() / key.len();
                return true;
            }
            if keys[rung * key.len()..(rung + 1) * key.len()] == *key {
                return false;
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Candidate multipliers for the sweep: every same-sign pairwise slope
/// `Δe/Δt` of every stage's option set (where trading time for energy
/// is possible) plus λ = 0, distinct and ascending, subsampled evenly
/// (both endpoints kept) when there are more than 192.
fn lambda_sweep(table: &StageTable) -> Vec<f64> {
    const MAX_LAMBDAS: usize = 192;
    let m = table.n_freqs();
    let mut lambdas = Vec::with_capacity(1 + table.n_stages() * m * (m - 1) / 2);
    lambdas.push(0.0_f64);
    for s in 0..table.n_stages() {
        let (time, ea) = table.rows(s);
        for a in 0..m {
            for b in (a + 1)..m {
                let (dt, de) = (time[a] - time[b], ea[b] - ea[a]);
                // Same-sign slopes only: either direction of a genuine
                // time/energy trade yields a positive multiplier.
                if (dt > 0.0 && de > 0.0) || (dt < 0.0 && de < 0.0) {
                    lambdas.push(de / dt);
                }
            }
        }
    }
    lambdas.retain(|l| l.is_finite() && *l >= 0.0);
    // `total_cmp`'s order, sorted as integers (twice as fast as sorting
    // the floats). Equal keys have equal bits, so an unstable sort
    // leaves the same list.
    let mut keys: Vec<i64> = lambdas.into_iter().map(total_key).collect();
    keys.sort_unstable();
    let mut lambdas: Vec<f64> = keys.into_iter().map(from_total_key).collect();
    lambdas.dedup();
    if lambdas.len() <= MAX_LAMBDAS {
        return lambdas;
    }
    (0..MAX_LAMBDAS)
        .map(|k| lambdas[k * (lambdas.len() - 1) / (MAX_LAMBDAS - 1)])
        .collect()
}

/// The integer whose order is `f64::total_cmp`'s: the bits, with the
/// magnitude bits of a negative value flipped. The map is its own
/// inverse (see [`from_total_key`]).
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The float whose [`total_key`] is `key`.
fn from_total_key(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// The index of the first minimum under `f64::total_cmp`, as `min_by`
/// picks it; 0 when `values` is empty. Each value's [`total_key`] is
/// computed once.
fn argmin(values: impl Iterator<Item = f64>) -> usize {
    let mut best = (0, i64::MAX);
    for (i, v) in values.enumerate() {
        let key = total_key(v);
        if key < best.1 {
            best = (i, key);
        }
    }
    best.0
}

/// What upgrading one `(stage, gene)` cell to the stage's minimum-time
/// gene is to the budget repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Upgrade {
    /// Not a candidate: the gene is the minimum-time one, or the upgrade
    /// saves no time.
    Excluded,
    /// A candidate with a non-NaN ratio, at this position of
    /// [`Repair::ranked`].
    Ranked(u32),
    /// A candidate whose ratio is NaN.
    Nan,
}

/// The budget repair's ranking of every `(stage, gene)` upgrade, built
/// once per call (see [`lagrangian_seeds`]).
///
/// A candidate is a cell off its stage's minimum-time gene whose
/// upgrade saves time (or whose saving is NaN); its ratio is `saved /
/// max(cost, 1e-12)`, which is never negative. Of a rung's candidates
/// left, the greedy pick is the lowest-index one when its ratio is NaN,
/// else the highest non-NaN ratio with ties to the lowest index.
#[derive(Debug)]
struct Repair {
    /// Per-stage minimum-time gene.
    fast: Vec<usize>,
    /// The stage of every ranked upgrade: ratio descending, ties to the
    /// lowest stage.
    ranked: Vec<u32>,
    /// Stage-major [`Upgrade`] of every cell.
    kind: Vec<Upgrade>,
    /// One bit per [`Self::ranked`] upgrade, set while the rung being
    /// repaired holds its gene.
    held: Vec<u64>,
}

impl Repair {
    fn rank(table: &StageTable) -> Self {
        let (n, m) = (table.n_stages(), table.n_freqs());
        let fast: Vec<usize> = (0..n)
            .map(|s| argmin(table.rows(s).0.iter().copied()))
            .collect();
        let mut kind = vec![Upgrade::Excluded; n * m];
        let mut upgrades = Vec::with_capacity(n * (m - 1));
        for (s, &f) in fast.iter().enumerate() {
            let (time, ea) = table.rows(s);
            for g in (0..m).filter(|&g| g != f) {
                let saved = time[g] - time[f];
                if saved <= 0.0 {
                    continue;
                }
                let ratio = saved / (ea[f] - ea[g]).max(1e-12);
                if ratio.is_nan() {
                    kind[s * m + g] = Upgrade::Nan;
                } else {
                    upgrades.push((Reverse(total_key(ratio)), s * m + g));
                }
            }
        }
        // Ratio descending; cells are stage-major, so cell order breaks
        // ratio ties toward the lowest stage.
        upgrades.sort_unstable();
        let ranked = upgrades
            .iter()
            .enumerate()
            .map(|(r, &(_, cell))| {
                kind[cell] = Upgrade::Ranked(r as u32);
                (cell / m) as u32
            })
            .collect();
        Self {
            fast,
            ranked,
            kind,
            held: vec![0; upgrades.len().div_ceil(64)],
        }
    }

    /// Upgrades the rung `genes` (whose times `tree` sums) in greedy
    /// order while its total time exceeds `budget` and a candidate is
    /// left. A NaN total never exceeds it.
    fn walk(&mut self, table: &StageTable, genes: &mut [usize], tree: &mut TimeTree, budget: f64) {
        let over = |tree: &TimeTree| tree.total() > budget;
        if !over(tree) {
            return;
        }
        let m = table.n_freqs();
        self.held.fill(0);
        let mut nans = 0;
        for (s, &g) in genes.iter().enumerate() {
            match self.kind[s * m + g] {
                Upgrade::Ranked(r) => self.held[r as usize / 64] |= 1 << (r % 64),
                Upgrade::Nan => nans += 1,
                Upgrade::Excluded => {}
            }
        }
        // No candidate is left below stage `lowest` (advanced only while
        // a NaN candidate is left: only then does the lowest-index
        // candidate matter), and no held ranked upgrade before word
        // `word` of `held`.
        let (mut lowest, mut word) = (0, 0);
        while over(tree) {
            let kind = |s: usize| self.kind[s * m + genes[s]];
            if nans > 0 {
                while kind(lowest) == Upgrade::Excluded {
                    lowest += 1;
                }
            }
            let s = if nans > 0 && kind(lowest) == Upgrade::Nan {
                nans -= 1;
                lowest
            } else {
                while word < self.held.len() && self.held[word] == 0 {
                    word += 1;
                }
                let Some(bits) = self.held.get_mut(word) else {
                    break;
                };
                let r = word * 64 + bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                self.ranked[r] as usize
            };
            genes[s] = self.fast[s];
            tree.set(s, table.rows(s).0[genes[s]]);
        }
    }
}

/// The time component of the evaluation tree: per-stage times summed
/// over the same heap-ordered pairwise tree, with the same `left +
/// right` additions, that [`IncrementalEval`] keeps (leaves padded with
/// zeros to a power of two), so its total is bit-identical to the
/// `time_us` of [`StageTable::evaluate`] once every stage's time is set.
#[derive(Debug)]
struct TimeTree {
    n_pad: usize,
    /// Root at index 1, leaf `i` at `n_pad + i`.
    nodes: Vec<f64>,
}

impl TimeTree {
    fn new(n: usize) -> Self {
        let n_pad = n.next_power_of_two();
        Self {
            n_pad,
            nodes: vec![0.0; 2 * n_pad],
        }
    }

    /// Sets one stage's time, updating its O(log n) ancestors.
    fn set(&mut self, stage: usize, time: f64) {
        let mut idx = self.n_pad + stage;
        let mut acc = time;
        self.nodes[idx] = acc;
        while idx > 1 {
            let sibling = self.nodes[idx ^ 1];
            let (left, right) = if idx.is_multiple_of(2) {
                (acc, sibling)
            } else {
                (sibling, acc)
            };
            acc = left + right;
            idx /= 2;
            self.nodes[idx] = acc;
        }
    }

    fn total(&self) -> f64 {
        self.nodes[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::{search, GaConfig};
    use crate::preprocess::{Stage, StageKind};
    use crate::strategy::ThermalCoupling;

    /// Synthetic memory/compute mix, same shape as the GA unit tests.
    fn table(n_mem: usize, n_cpu: usize) -> StageTable {
        let freqs: Vec<FreqMhz> = (10..=18).map(|k| FreqMhz::new(k * 100)).collect();
        let mut stages = Vec::new();
        let mut time = Vec::new();
        let mut ea = Vec::new();
        let mut es = Vec::new();
        let mut t0 = 0.0;
        for i in 0..n_mem + n_cpu {
            let mem = i < n_mem;
            let dur = 10_000.0;
            stages.push(Stage {
                start_us: t0,
                dur_us: dur,
                op_range: i..i + 1,
                kind: if mem { StageKind::Lfc } else { StageKind::Hfc },
            });
            t0 += dur;
            let mut trow = Vec::new();
            let mut arow = Vec::new();
            let mut srow = Vec::new();
            for &f in &freqs {
                let x = f.as_f64() / 1800.0;
                let t = if mem {
                    dur * (1.02 - 0.02 * x)
                } else {
                    dur / x
                };
                let p = 12.0 + 30.0 * x * x;
                trow.push(t);
                arow.push(p * t);
                srow.push((p + 180.0) * t);
            }
            time.push(trow);
            ea.push(arow);
            es.push(srow);
        }
        StageTable::from_parts(freqs, stages, time, ea, es).unwrap()
    }

    #[test]
    fn certifies_and_beats_brute_force_free_small_table() {
        // 4 stages × 9 freqs = 6561 genomes: brute force is feasible, so
        // verify the DP really is exact.
        let t = table(2, 2);
        let out = solve(&t, 0.02);
        assert!(out.certified);
        let baseline = t.baseline().time_us;
        let mut best = f64::NEG_INFINITY;
        let mut genes = vec![0usize; 4];
        let m = t.n_freqs();
        for code in 0..m.pow(4) {
            let mut c = code;
            for g in genes.iter_mut() {
                *g = c % m;
                c /= m;
            }
            let s = score(&t.evaluate(&genes), baseline, 0.02);
            if s > best {
                best = s;
            }
        }
        assert_eq!(
            out.score.to_bits(),
            best.to_bits(),
            "DP optimum {} vs brute force {}",
            out.score,
            best
        );
    }

    #[test]
    fn reported_score_is_achieved_bit_exactly() {
        let t = table(3, 3);
        let out = solve(&t, 0.02);
        assert!(out.certified);
        let achieved = score(&t.evaluate(&out.genes), t.baseline().time_us, 0.02);
        assert_eq!(achieved.to_bits(), out.score.to_bits());
        assert_eq!(out.eval, t.evaluate(&out.genes));
    }

    #[test]
    fn oracle_matches_or_beats_the_ga() {
        for (nm, nc) in [(2, 2), (3, 3), (4, 2)] {
            let t = table(nm, nc);
            let exact = solve(&t, 0.02);
            let ga = search(
                &t,
                &GaConfig::default().with_population(40).with_iterations(60),
            );
            assert!(exact.certified);
            assert!(
                exact.score >= ga.best_score,
                "({nm},{nc}): oracle {} < GA {}",
                exact.score,
                ga.best_score
            );
        }
    }

    #[test]
    fn thermally_coupled_tables_fall_back_uncertified() {
        let volts = vec![0.9; 9];
        let t = table(2, 2).with_thermal_coupling(
            ThermalCoupling {
                gamma_aicore: 0.05,
                gamma_soc: 0.1,
                k_c_per_w: 0.08,
            },
            volts,
        );
        let out = solve(&t, 0.02);
        assert!(!out.certified);
        // The fallback result is still internally consistent.
        let achieved = score(&t.evaluate(&out.genes), t.baseline().time_us, 0.02);
        assert_eq!(achieved.to_bits(), out.score.to_bits());
    }

    #[test]
    fn coupling_without_aicore_gamma_stays_certified() {
        // The fix point only adjusts SoC energy here; scoring reads time
        // and AICore energy, so certification holds.
        let volts = vec![0.9; 9];
        let t = table(2, 2).with_thermal_coupling(
            ThermalCoupling {
                gamma_aicore: 0.0,
                gamma_soc: 0.1,
                k_c_per_w: 0.08,
            },
            volts,
        );
        let out = solve(&t, 0.02);
        assert!(out.certified);
        let achieved = score(&t.evaluate(&out.genes), t.baseline().time_us, 0.02);
        assert_eq!(achieved.to_bits(), out.score.to_bits());
    }

    #[test]
    fn lagrangian_seeds_are_distinct_scored_and_sorted() {
        let t = table(4, 4);
        let seeds = lagrangian_seeds(&t, 0.02, 16);
        assert!(!seeds.is_empty());
        assert!(seeds.len() <= 16);
        for w in seeds.windows(2) {
            assert!(w[0].score >= w[1].score, "seeds must be sorted by score");
            assert_ne!(w[0].genes, w[1].genes, "seeds must be distinct");
        }
        let baseline = t.baseline().time_us;
        for s in &seeds {
            assert_eq!(s.genes.len(), t.n_stages());
            let achieved = score(&t.evaluate(&s.genes), baseline, 0.02);
            assert_eq!(achieved.to_bits(), s.score.to_bits());
        }
        // The best rung must at least match the all-max baseline genome.
        let base_genes = vec![t.n_freqs() - 1; t.n_stages()];
        let base_score = score(&t.evaluate(&base_genes), baseline, 0.02);
        assert!(seeds[0].score >= base_score);
    }

    #[test]
    fn loss_targets_without_a_bound_skip_the_ladder() {
        // The GA asks the ladder for oracle seeds; the coupled copy sends
        // `solve` down its uncertified Lagrangian fallback.
        let t = table(128, 128);
        let coupled = t.clone().with_thermal_coupling(
            ThermalCoupling {
                gamma_aicore: 0.05,
                gamma_soc: 0.1,
                k_c_per_w: 0.08,
            },
            vec![0.9; 9],
        );
        let all_max = vec![t.n_freqs() - 1; t.n_stages()];
        for loss in [1.0, f64::NAN] {
            assert!(lagrangian_seeds(&t, loss, 8).is_empty());
            let cfg = GaConfig::default()
                .with_loss_target(loss)
                .with_population(8)
                .with_iterations(2)
                .with_oracle_seeds(8);
            assert_eq!(search(&t, &cfg).strategy.len(), t.n_stages());
            let out = solve(&coupled, loss);
            assert!(!out.certified);
            assert_eq!(out.genes, all_max, "no rungs: the all-max fallback");
        }
    }

    #[test]
    fn serving_search_keeps_a_warm_seed_only_when_it_scores_higher() {
        let coupling = ThermalCoupling {
            gamma_aicore: 0.05,
            gamma_soc: 0.1,
            k_c_per_w: 0.08,
        };
        let t = table(3, 3).with_thermal_coupling(coupling, vec![0.9; 9]);
        let obs = ObserverHandle::null();
        let solved = solve(&t, 0.02);
        let cold = serving_search(&t, 0.02, &[], &obs);
        assert_eq!(cold.best_score.to_bits(), solved.score.to_bits());
        assert_eq!(cold.best_eval, solved.eval);
        assert_eq!(cold.score_trace, vec![cold.best_score]);

        // A seed that only ties keeps the solver's answer; an empty seed
        // is skipped.
        let tie = [Vec::new(), cold.strategy.freqs().to_vec()];
        let warm = serving_search(&t, 0.02, &tie, &obs);
        assert_eq!(warm.strategy, cold.strategy);
        assert_eq!(warm.evaluations, cold.evaluations + 1);

        // Two stages that each save energy slowly but lose score when
        // slowed alone: T·EA is 400 at all-max, 420 with one stage slow
        // and 320 with both. With no bound (ℓ = 1) the ladder is empty,
        // the solver answers all-max and the ascent cannot leave it; the
        // seed that slows both stages wins.
        let (lo, hi) = (FreqMhz::new(1000), FreqMhz::new(1800));
        let stages = (0..2)
            .map(|i| Stage {
                start_us: 10.0 * i as f64,
                dur_us: 10.0,
                op_range: i..i + 1,
                kind: StageKind::Lfc,
            })
            .collect();
        let row = |slow: f64, fast: f64| vec![vec![slow, fast]; 2];
        let t = StageTable::from_parts(
            vec![lo, hi],
            stages,
            row(20.0, 10.0),
            row(4.0, 10.0),
            row(40.0, 50.0),
        )
        .unwrap()
        .with_thermal_coupling(coupling, vec![0.8, 0.9]);
        let unbounded = serving_search(&t, 1.0, &[], &obs);
        assert_eq!(unbounded.strategy.freqs(), &[hi, hi]);
        let seeded = serving_search(&t, 1.0, &[vec![lo]], &obs);
        assert_eq!(seeded.strategy.freqs(), &[lo, lo], "one gene stretched");
        assert!(seeded.best_score > unbounded.best_score);
        assert_eq!(seeded.best_eval, t.evaluate(&[0, 0]));
    }

    #[test]
    fn warm_seeds_with_mismatched_stage_counts_are_stretched() {
        // A seed searched on a device whose profile split into a
        // different stage count maps by proportional index: its own
        // mapped evaluation bounds the served score from below.
        let coupling = ThermalCoupling {
            gamma_aicore: 0.05,
            gamma_soc: 0.1,
            k_c_per_w: 0.08,
        };
        let t = table(4, 4).with_thermal_coupling(coupling, vec![0.9; 9]); // 8 stages
        let obs = ObserverHandle::null();
        // A 4-gene seed (half the stages): low for the memory half, max
        // for the compute half.
        let lo = t.freqs()[0];
        let hi = *t.freqs().last().unwrap();
        let seed = vec![lo, lo, hi, hi];
        let n = t.n_stages();
        let mapped: Vec<usize> = (0..n)
            .map(|i| {
                let f = seed[i * seed.len() / n];
                t.freqs().iter().position(|&g| g >= f).unwrap()
            })
            .collect();
        let mut genes = Vec::new();
        t.map_freqs(&seed, &mut genes);
        assert_eq!(genes, mapped);
        let seed_score = score(&t.evaluate(&mapped), t.baseline().time_us, 0.02);
        let warm = serving_search(&t, 0.02, &[seed], &obs);
        assert!(warm.best_score >= seed_score);
        // Empty seeds are skipped and change nothing.
        let cold = serving_search(&t, 0.02, &[], &obs);
        let noop = serving_search(&t, 0.02, &[Vec::new()], &obs);
        assert_eq!(cold, noop, "empty warm seed must not perturb the search");
    }

    #[test]
    fn empty_table_is_trivially_certified() {
        let t = StageTable::from_parts(vec![FreqMhz::new(1800)], vec![], vec![], vec![], vec![])
            .unwrap();
        let out = solve(&t, 0.02);
        assert!(out.certified);
        assert!(out.genes.is_empty());
        assert_eq!(out.score, 0.0);
        assert!(lagrangian_seeds(&t, 0.02, 8).is_empty());
    }
}
