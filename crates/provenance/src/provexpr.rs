//! Object-keyed vector provenance: `P = P_movie1 ⊕_M P_movie2 ⊕_M …`
//! (Example 4.2.3).
//!
//! Evaluating such a provenance under a valuation yields a *vector* of
//! aggregated values, one coordinate per object (movie, Wikipedia page, …).
//! Objects are themselves annotations, so a mapping may merge object keys
//! too (Wikipedia pages mapped to a WordNet concept) — entries then re-key
//! and combine, exactly the "vectors of different size" transformation of
//! Example 5.2.1.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::aggexpr::{fold_live, AggExpr};
use crate::annot::AnnId;
use crate::eval::EvalVector;
use crate::mapping::Mapping;
use crate::merge::{KeyArena, MergePlan};
use crate::monoid::{AggKind, AggValue};
use crate::tensor::Tensor;
use crate::valuation::{Truth, Valuation};

/// A provenance expression over multiple objects.
#[derive(Clone, Debug, PartialEq)]
pub struct ProvExpr {
    /// `(object annotation, aggregated expression)`, in insertion order.
    pub(crate) entries: Vec<(AnnId, AggExpr)>,
    pub(crate) kind: AggKind,
}

impl ProvExpr {
    /// Empty expression with the given aggregation.
    pub fn new(kind: AggKind) -> Self {
        ProvExpr {
            entries: Vec::new(),
            kind,
        }
    }

    /// The aggregation kind shared by all coordinates.
    pub fn kind(&self) -> AggKind {
        self.kind
    }

    /// Add a tensor to the given object's aggregation (creating the entry
    /// when absent). Call [`ProvExpr::simplify`] after bulk insertion.
    /// Pushes grouped by object (the way folds build expressions) hit the
    /// last entry and skip the scan.
    pub fn push(&mut self, object: AnnId, t: Tensor) {
        let entry = match self.entries.last_mut() {
            Some(last) if last.0 == object => Some(last),
            _ => self.entries.iter_mut().find(|(o, _)| *o == object),
        };
        match entry {
            Some((_, e)) => e.push(t),
            None => {
                let mut e = AggExpr::new(self.kind);
                e.push(t);
                self.entries.push((object, e));
            }
        }
    }

    /// Insert a complete aggregated expression for an object.
    pub fn insert(&mut self, object: AnnId, expr: AggExpr) {
        debug_assert_eq!(expr.kind(), self.kind);
        match self.entries.iter_mut().find(|(o, _)| *o == object) {
            Some((_, existing)) => {
                let mut tensors: Vec<Tensor> = existing.tensors().to_vec();
                tensors.extend(expr.tensors().iter().cloned());
                *existing = AggExpr::from_tensors(tensors, self.kind);
            }
            None => self.entries.push((object, expr)),
        }
    }

    /// `(object, expression)` coordinates.
    pub fn entries(&self) -> &[(AnnId, AggExpr)] {
        &self.entries
    }

    /// Number of object coordinates.
    pub fn num_objects(&self) -> usize {
        self.entries.len()
    }

    /// Provenance size: total annotation occurrences, with repetitions.
    pub fn size(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.size()).sum()
    }

    /// Distinct annotations mentioned anywhere (objects included, since
    /// object keys also appear inside tensor monomials in our datasets).
    pub fn annotations(&self) -> Vec<AnnId> {
        let mut out: Vec<AnnId> = self
            .entries
            .iter()
            .flat_map(|(o, e)| {
                let mut v = e.annotations();
                v.push(*o);
                v
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Simplify every coordinate.
    pub fn simplify(&mut self) {
        for (_, e) in &mut self.entries {
            e.simplify();
        }
    }

    /// Apply a mapping: map every aggregation, re-key objects through `h`,
    /// and merge coordinates that collide (the object-merging congruence).
    pub fn map(&self, h: &Mapping) -> ProvExpr {
        let mut out = ProvExpr::new(self.kind);
        let mut index: BTreeMap<AnnId, usize> = BTreeMap::new();
        for (object, expr) in &self.entries {
            let new_object = h.image(*object);
            let mapped = expr.map(h);
            match index.get(&new_object) {
                Some(&ix) => {
                    let mut tensors: Vec<Tensor> = out.entries[ix].1.tensors().to_vec();
                    tensors.extend(mapped.tensors().iter().cloned());
                    out.entries[ix].1 = AggExpr::from_tensors(tensors, self.kind);
                }
                None => {
                    index.insert(new_object, out.entries.len());
                    out.entries.push((new_object, mapped));
                }
            }
        }
        out
    }

    /// Evaluate under a valuation into a coordinate vector. A cancelled
    /// object annotation zeroes its coordinate implicitly (its tensors all
    /// mention the object, so they die with it) — but we also respect a
    /// direct cancellation of the key itself for datasets whose tensors do
    /// not embed the object.
    pub fn eval<T: Truth + ?Sized>(&self, v: &T) -> EvalVector {
        let coords = self
            .entries
            .iter()
            .map(|(o, e)| {
                (
                    *o,
                    coordinate(*o, e.kind, e.tensors.iter().map(|t| (t, t.value)), v),
                )
            })
            .collect();
        EvalVector::new(coords, self.kind)
    }

    /// Plan the merge of `members` onto `members[0]` into `plan` (see
    /// [`crate::Summarizable::plan_merge`]). The plan mirrors [`ProvExpr::map`]:
    /// tensors that mention a member are re-keyed and fold into the first
    /// equal tensor of their entry; entries keyed by a member fold into the
    /// first such entry, every tensor taking part.
    pub fn plan_merge(&self, members: &[AnnId], plan: &mut ProvMerge) {
        plan.members.clear();
        plan.members.extend_from_slice(members);
        plan.removed = 0;
        plan.added = 0;
        plan.entries.clear();
        plan.tensors.clear();
        plan.objects.clear();
        plan.objects.extend(
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, (o, _))| members.contains(o))
                .map(|(ix, _)| ix),
        );
        plan.truth_only = plan.objects.is_empty();
        let mut objects = std::mem::take(&mut plan.objects);
        for (ix, (o, e)) in self.entries.iter().enumerate() {
            if objects.first() == Some(&ix) {
                self.plan_entry(plan, &objects, members[0], true);
            } else if !objects.contains(&ix) && e.tensors.iter().any(|t| t.mentions(members)) {
                self.plan_entry(plan, &[ix], *o, false);
            }
        }
        std::mem::swap(&mut plan.objects, &mut objects);
    }

    /// Plan one entry of the merged expression, keyed `key`, built from the
    /// `sources` entries: with `all`, every tensor is re-keyed (merged
    /// objects); otherwise only those that mention a member.
    fn plan_entry(&self, plan: &mut ProvMerge, sources: &[usize], key: AnnId, all: bool) {
        let members = &plan.members;
        plan.arena.clear();
        plan.items.clear();
        for &ix in sources {
            for (j, t) in self.entries[ix].1.tensors.iter().enumerate() {
                if all || t.mentions(members) {
                    plan.removed += t.size();
                    let size = plan.arena.push_tensor(t, members);
                    plan.items.push(MergeItem {
                        entry: ix,
                        tensor: j,
                        size,
                        fold: None,
                        value: None,
                    });
                }
            }
        }
        plan.arena.first_seen(&mut plan.leaders);
        // Values fold into their group's first tensor, entry by entry —
        // `AggExpr::from_tensors` per entry, then again across the merged
        // entries, as `ProvExpr::map` concatenates them.
        let mut collided = false;
        for i in 0..plan.items.len() {
            let (leader, item) = (plan.leaders[i], plan.items[i]);
            let source = &self.entries[item.entry].1;
            let value = source.tensors[item.tensor].value;
            collided |= leader != i;
            let group = &mut plan.items[leader];
            group.fold = Some(match group.fold {
                Some((entry, acc)) if entry == item.entry => {
                    (entry, acc.combine(value, source.kind))
                }
                Some((_, acc)) => {
                    group.value = Some(group.value.map_or(acc, |v| v.combine(acc, self.kind)));
                    (item.entry, value)
                }
                None => (item.entry, value),
            });
        }
        if collided && !all && !order_free(&self.entries[sources[0]].1) {
            plan.truth_only = false;
        }
        let start = plan.tensors.len();
        let mut next = 0;
        for &ix in sources {
            for (j, t) in self.entries[ix].1.tensors.iter().enumerate() {
                let value = match plan.items.get(next) {
                    Some(item) if (item.entry, item.tensor) == (ix, j) => {
                        next += 1;
                        if plan.leaders[next - 1] != next - 1 {
                            continue;
                        }
                        plan.added += item.size;
                        let (_, acc) = item.fold.unwrap_or((ix, t.value));
                        item.value.map_or(acc, |v| v.combine(acc, self.kind))
                    }
                    _ => t.value,
                };
                plan.tensors.push(MergedTensor {
                    value,
                    entry: ix,
                    tensor: j,
                });
            }
        }
        plan.entries.push(MergedEntry {
            source: sources[0],
            key,
            // A lone entry keeps its own aggregation; merged entries are
            // rebuilt with the expression's.
            kind: match sources {
                [ix] => self.entries[*ix].1.kind,
                _ => self.kind,
            },
            tensors: start..plan.tensors.len(),
        });
    }

    /// Evaluate the planned merge under `v`, a view in which every member
    /// reads as the merged annotation, into `out`. Entries the merge leaves
    /// alone are read from `current` — this expression's evaluation under
    /// a valuation agreeing with `v` off the members — when it has them.
    pub fn eval_merged<T: Truth + ?Sized>(
        &self,
        plan: &ProvMerge,
        v: &T,
        current: &[(AnnId, AggValue)],
        out: &mut EvalVector,
    ) {
        out.kind = self.kind;
        out.coords.clear();
        let mut changed = plan.entries.iter().peekable();
        for (ix, (o, e)) in self.entries.iter().enumerate() {
            if let Some(m) = changed.next_if(|m| m.source == ix) {
                let tensors = plan.tensors[m.tensors.clone()]
                    .iter()
                    .map(|t| (&self.entries[t.entry].1.tensors[t.tensor], t.value));
                out.coords
                    .push((m.key, coordinate(m.key, m.kind, tensors, v)));
            } else if !plan.objects.contains(&ix) {
                let value = match current.get(ix) {
                    Some(&(key, value)) if key == *o => value,
                    _ => coordinate(*o, e.kind, e.tensors.iter().map(|t| (t, t.value)), v),
                };
                out.coords.push((*o, value));
            }
        }
    }

    /// Iterate all tensors with their object key.
    pub fn tensors(&self) -> impl Iterator<Item = (AnnId, &Tensor)> {
        self.entries
            .iter()
            .flat_map(|(o, e)| e.tensors().iter().map(move |t| (*o, t)))
    }

    /// Discharge all guards under the given partial valuation: guards that
    /// hold are removed, tensors whose guards fail are dropped. This is
    /// Example 3.1.1's simplification ("map all Sᵢ annotations to 1 so we
    /// can discard the inequality terms") generalized to any assumption.
    pub fn discharge_guards(&self, assumption: &Valuation) -> ProvExpr {
        let mut out = ProvExpr::new(self.kind);
        for (object, expr) in &self.entries {
            let tensors: Vec<Tensor> = expr
                .tensors()
                .iter()
                .filter(|t| t.guards.iter().all(|g| g.eval(assumption)))
                .map(|t| Tensor::new(t.prov.clone(), t.value))
                .collect();
            if !tensors.is_empty() {
                out.entries
                    .push((*object, AggExpr::from_tensors(tensors, self.kind)));
            }
        }
        out
    }
}

/// One coordinate of an evaluation: the fold of the live tensors, or the
/// empty value when the object itself is cancelled.
fn coordinate<'t, T: Truth + ?Sized>(
    object: AnnId,
    kind: AggKind,
    tensors: impl Iterator<Item = (&'t Tensor, AggValue)>,
    v: &T,
) -> AggValue {
    if v.truth(object) {
        fold_live(kind, tensors, v)
    } else {
        AggValue::empty()
    }
}

/// Does folding this entry's values give the same result in any order?
/// MAX and MIN always do; SUM and COUNT do when every value is an integer
/// and no partial sum can leave the exactly representable range.
fn order_free(e: &AggExpr) -> bool {
    match e.kind {
        AggKind::Max | AggKind::Min => true,
        AggKind::Sum | AggKind::Count => {
            let mut total = 0.0f64;
            e.tensors.iter().all(|t| {
                total += t.value.value.abs();
                t.value.value.fract() == 0.0 && total <= (1u64 << 53) as f64
            })
        }
    }
}

/// A planned single-step merge of a [`ProvExpr`]: the entries it changes,
/// their tensors in the order `map` would leave them, and their sizes.
#[derive(Clone, Debug, Default)]
pub struct ProvMerge {
    members: Vec<AnnId>,
    /// Size of the re-keyed tensors before and after the merge.
    removed: usize,
    added: usize,
    truth_only: bool,
    /// Changed entries, in order.
    entries: Vec<MergedEntry>,
    tensors: Vec<MergedTensor>,
    /// Entries keyed by a member: the first becomes the merged entry, the
    /// rest fold into it.
    objects: Vec<usize>,
    arena: KeyArena,
    items: Vec<MergeItem>,
    leaders: Vec<usize>,
}

impl MergePlan for ProvMerge {
    fn merged_size(&self, size: usize) -> usize {
        size - self.removed + self.added
    }

    fn identifies_truths_only(&self) -> bool {
        self.truth_only
    }
}

/// An entry of the merged expression that differs from the unmerged one.
#[derive(Clone, Debug)]
struct MergedEntry {
    /// Position of the unmerged entry it replaces.
    source: usize,
    key: AnnId,
    kind: AggKind,
    tensors: Range<usize>,
}

/// A tensor of a changed entry: its value, and the unmerged tensor whose
/// liveness (read through the merged view) it shares.
#[derive(Clone, Copy, Debug)]
struct MergedTensor {
    value: AggValue,
    entry: usize,
    tensor: usize,
}

/// A re-keyed tensor during planning, with its group's running fold:
/// the fold within the current source entry, and the fold of the earlier
/// entries.
#[derive(Clone, Copy, Debug)]
struct MergeItem {
    entry: usize,
    tensor: usize,
    size: usize,
    fold: Option<(usize, AggValue)>,
    value: Option<AggValue>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::Polynomial;

    fn a(ix: usize) -> AnnId {
        AnnId::from_index(ix)
    }

    /// Example 4.2.3: P₀ = P_MP ⊕_M P_BJ with
    /// P_MP = U₁⊗(3,1) ⊕ U₂⊗(5,1) ⊕ U₃⊗(3,1), P_BJ = U₂⊗(4,1).
    /// Users are a1..a3; movies are a10 (MatchPoint), a11 (BlueJasmine).
    fn p0() -> ProvExpr {
        let mut p = ProvExpr::new(AggKind::Max);
        for (user, score) in [(1, 3.0), (2, 5.0), (3, 3.0)] {
            p.push(
                a(10),
                Tensor::new(Polynomial::var(a(user)), AggValue::single(score)),
            );
        }
        p.push(
            a(11),
            Tensor::new(Polynomial::var(a(2)), AggValue::single(4.0)),
        );
        p.simplify();
        p
    }

    #[test]
    fn push_keeps_first_appearance_order_grouped_or_interleaved() {
        let t = |user: usize, score: f64| {
            Tensor::new(Polynomial::var(a(user)), AggValue::single(score))
        };
        // (object, user) pushes: grouped runs, then objects revisited out
        // of order, so both the last-entry fast path and the scan run.
        let pushes = [
            (10, 1),
            (10, 2),
            (11, 3),
            (10, 4),
            (12, 5),
            (11, 6),
            (11, 7),
            (12, 8),
            (10, 9),
        ];
        let mut p = ProvExpr::new(AggKind::Sum);
        let mut want: Vec<(AnnId, Vec<Tensor>)> = Vec::new();
        for (i, &(object, user)) in pushes.iter().enumerate() {
            let tensor = t(user, i as f64);
            p.push(a(object), tensor.clone());
            match want.iter_mut().find(|(o, _)| *o == a(object)) {
                Some((_, ts)) => ts.push(tensor),
                None => want.push((a(object), vec![tensor])),
            }
        }
        let got: Vec<(AnnId, Vec<Tensor>)> = p
            .entries()
            .iter()
            .map(|(o, e)| (*o, e.tensors().to_vec()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn eval_yields_one_coordinate_per_object() {
        let p = p0();
        let v = p.eval(&Valuation::all_true());
        assert_eq!(v.scalar_for(a(10)), Some(5.0));
        assert_eq!(v.scalar_for(a(11)), Some(4.0));
    }

    #[test]
    fn cancelling_u2_zeroes_blue_jasmine() {
        let p = p0();
        let v = p.eval(&Valuation::cancel(&[a(2)]));
        assert_eq!(v.scalar_for(a(10)), Some(3.0));
        assert_eq!(v.scalar_for(a(11)), Some(0.0));
    }

    #[test]
    fn mapping_users_keeps_object_keys() {
        // Example 4.2.3's P₀′: Female = {U1,U2} → a20.
        let p = p0().map(&Mapping::group(&[a(1), a(2)], a(20)));
        assert_eq!(p.num_objects(), 2);
        // MatchPoint: Female⊗(5,2) ⊕ U3⊗(3,1); BlueJasmine: Female⊗(4,1)
        assert_eq!(p.entries()[0].1.len(), 2);
        assert_eq!(p.entries()[1].1.len(), 1);
        assert_eq!(p.size(), 3, "merging U1,U2 removed one occurrence");
    }

    #[test]
    fn mapping_objects_merges_coordinates() {
        // Merge the two movies into one "WoodyAllen" object (a30): the two
        // aggregations concatenate and simplify.
        let p = p0().map(&Mapping::group(&[a(10), a(11)], a(30)));
        assert_eq!(p.num_objects(), 1);
        let v = p.eval(&Valuation::all_true());
        assert_eq!(v.scalar_for(a(30)), Some(5.0)); // MAX over all ratings
    }

    #[test]
    fn cancelling_object_key_zeroes_coordinate() {
        let p = p0();
        let v = p.eval(&Valuation::cancel(&[a(11)]));
        assert_eq!(v.scalar_for(a(11)), Some(0.0));
        assert_eq!(v.scalar_for(a(10)), Some(5.0));
    }

    #[test]
    fn size_counts_all_occurrences() {
        assert_eq!(p0().size(), 4);
    }

    #[test]
    fn discharge_guards_removes_satisfied_and_drops_failed() {
        use crate::guard::{CmpOp, Guard};
        let mut p = ProvExpr::new(AggKind::Max);
        // Tensor guarded on a2 being live with weight 5 > 2 (holds when a2
        // is assumed true) and one guarded on weight 1 > 2 (never holds).
        p.push(
            a(10),
            Tensor::guarded(
                Polynomial::var(a(0)),
                vec![Guard::single(Polynomial::var(a(2)), 5.0, CmpOp::Gt, 2.0)],
                AggValue::single(3.0),
            ),
        );
        p.push(
            a(10),
            Tensor::guarded(
                Polynomial::var(a(1)),
                vec![Guard::single(Polynomial::var(a(2)), 1.0, CmpOp::Gt, 2.0)],
                AggValue::single(5.0),
            ),
        );
        let simplified = p.discharge_guards(&Valuation::all_true());
        assert_eq!(simplified.size(), 1, "one tensor kept, guard removed");
        assert!(simplified.tensors().all(|(_, t)| t.guards.is_empty()));
        assert_eq!(
            simplified.eval(&Valuation::all_true()).scalar_for(a(10)),
            Some(3.0)
        );
    }
}
