//! Single-step merges, planned without building the merged expression.
//!
//! Scoring a candidate mapping `{m₀, …, mₖ} ↦ m₀` needs the merged
//! expression's size and its evaluation under many valuations — not the
//! expression itself. A plan ([`crate::Summarizable::plan_merge`]) records
//! only what the merge changes: which tensors (executions) mention a
//! member, which of them collide once the members read as one annotation,
//! and the values `map` would combine for them, in `map`'s order.
//! Everything else is read from the unmerged expression.
//!
//! Collisions are found on canonical encodings of the merged keys, written
//! into a reusable [`KeyArena`], so planning allocates nothing once its
//! buffers have grown.

use std::ops::Range;

use crate::annot::AnnId;
use crate::ddp::{DdpExecution, DdpTransition};
use crate::polynomial::Polynomial;
use crate::tensor::Tensor;

/// A planned single-step merge.
pub trait MergePlan: Default {
    /// Size of the merged expression, given the size of the expression the
    /// plan was made on.
    fn merged_size(&self, size: usize) -> usize;

    /// True when the merge only identifies truth values: under a valuation
    /// that already gives every member the merged truth, the merged
    /// expression evaluates bit for bit as the unmerged one.
    fn identifies_truths_only(&self) -> bool;
}

/// Image of `a` under the merge of `members` onto `members[0]`.
#[inline]
pub(crate) fn merged_image(members: &[AnnId], a: AnnId) -> AnnId {
    if members.contains(&a) {
        members[0]
    } else {
        a
    }
}

/// Canonical encodings of merged keys: two keys are equal exactly when
/// the structures `map` would build for them are equal.
#[derive(Clone, Debug, Default)]
pub(crate) struct KeyArena {
    /// Concatenated encodings.
    words: Vec<u32>,
    /// One encoding per key, as a range of `words`.
    keys: Vec<Range<usize>>,
    /// Scratch: encoded parts (monomials, transitions) before sorting.
    parts: Vec<u32>,
    spans: Vec<(Range<usize>, u64)>,
    /// Scratch for [`KeyArena::first_seen`].
    order: Vec<usize>,
}

impl KeyArena {
    /// Forget every key, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.keys.clear();
    }

    /// Number of keys encoded since the last [`KeyArena::clear`].
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Encode `t` as `Tensor::map` under the merge would rebuild it: its
    /// provenance and guards, the key of `AggExpr::simplify`. Returns the
    /// merged tensor's size.
    pub(crate) fn push_tensor(&mut self, t: &Tensor, members: &[AnnId]) -> usize {
        let start = self.words.len();
        let mut size = self.polynomial(&t.prov, members);
        self.words.push(t.guards.len() as u32);
        for g in &t.guards {
            self.words.push(g.lhs.len() as u32);
            for (p, w) in &g.lhs {
                size += self.polynomial(p, members);
                self.push_f64(*w);
            }
            self.words.push(g.op as u32);
            self.push_f64(g.rhs);
        }
        self.keys.push(start..self.words.len());
        size
    }

    /// Encode `e` as `DdpExpr::map` under the merge would rebuild it, up
    /// to the transition order its deduplication ignores. Returns the
    /// merged execution's size.
    pub(crate) fn push_execution(&mut self, e: &DdpExecution, members: &[AnnId]) -> usize {
        self.parts.clear();
        self.spans.clear();
        let mut size = 0;
        for t in &e.transitions {
            let start = self.parts.len();
            match t {
                DdpTransition::User { cost_var } => {
                    self.parts.extend([0, merged_image(members, *cost_var).0]);
                    size += 1;
                }
                DdpTransition::Db { vars, op } => {
                    self.parts.extend([1, *op as u32]);
                    let first = self.parts.len();
                    self.parts
                        .extend(vars.iter().map(|&d| merged_image(members, d).0));
                    self.parts[first..].sort_unstable();
                    // D·D ≡ D inside a boolean condition.
                    let mut kept = first;
                    for ix in first..self.parts.len() {
                        if kept == first || self.parts[kept - 1] != self.parts[ix] {
                            self.parts[kept] = self.parts[ix];
                            kept += 1;
                        }
                    }
                    self.parts.truncate(kept);
                    size += kept - first;
                }
            }
            self.spans.push((start..self.parts.len(), 0));
        }
        let start = self.words.len();
        self.emit_sorted_parts(false);
        self.keys.push(start..self.words.len());
        size
    }

    /// For each key, the index of the first key equal to it — the slot
    /// a first-seen-order simplification would fold it into.
    pub(crate) fn first_seen(&mut self, leaders: &mut Vec<usize>) {
        let (words, keys) = (&self.words, &self.keys);
        self.order.clear();
        self.order.extend(0..keys.len());
        self.order.sort_unstable_by(|&a, &b| {
            words[keys[a].clone()]
                .cmp(&words[keys[b].clone()])
                .then(a.cmp(&b))
        });
        leaders.clear();
        leaders.resize(keys.len(), 0);
        let mut run_start = 0;
        for (pos, &ix) in self.order.iter().enumerate() {
            let leader = self.order[run_start];
            if words[keys[ix].clone()] != words[keys[leader].clone()] {
                run_start = pos;
            }
            leaders[ix] = self.order[run_start];
        }
    }

    /// Encode `p` as `Polynomial::map` under the merge would rebuild it:
    /// merged monomials re-sorted, terms sorted and like terms added.
    /// Returns the merged polynomial's size.
    fn polynomial(&mut self, p: &Polynomial, members: &[AnnId]) -> usize {
        self.parts.clear();
        self.spans.clear();
        for (m, c) in p.terms() {
            let start = self.parts.len();
            self.parts
                .extend(m.factors().iter().map(|&a| merged_image(members, a).0));
            self.parts[start..].sort_unstable();
            self.spans.push((start..self.parts.len(), *c));
        }
        self.emit_sorted_parts(true)
    }

    /// Sort the scratch parts and append them as `[count, (len, part…,
    /// [coefficient])…]`; with `like_terms`, equal parts are written once
    /// with their coefficients added (`Polynomial::from_terms`). Returns
    /// the number of annotation words written.
    fn emit_sorted_parts(&mut self, like_terms: bool) -> usize {
        let parts = &self.parts;
        self.spans
            .sort_by(|a, b| parts[a.0.clone()].cmp(&parts[b.0.clone()]));
        let count_at = self.words.len();
        self.words.push(0);
        let (mut count, mut size) = (0u32, 0usize);
        let mut ix = 0;
        while ix < self.spans.len() {
            let (range, mut coeff) = self.spans[ix].clone();
            ix += 1;
            while like_terms
                && ix < self.spans.len()
                && parts[self.spans[ix].0.clone()] == parts[range.clone()]
            {
                coeff += self.spans[ix].1;
                ix += 1;
            }
            self.words.push(range.len() as u32);
            self.words.extend_from_slice(&parts[range.clone()]);
            if like_terms {
                self.words.push(coeff as u32);
                self.words.push((coeff >> 32) as u32);
            }
            count += 1;
            size += range.len();
        }
        self.words[count_at] = count;
        size
    }

    fn push_f64(&mut self, x: f64) {
        let bits = x.to_bits();
        self.words.push(bits as u32);
        self.words.push((bits >> 32) as u32);
    }
}
