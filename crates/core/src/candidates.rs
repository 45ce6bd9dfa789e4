//! Candidate mapping enumeration (`CandidateHom` in Algorithm 1).
//!
//! Each algorithm step examines single-step mappings of `k` annotations
//! (k = 2 in the paper; larger k exercises the thesis's future-work
//! generalization) to one new annotation. Candidates must satisfy the
//! semantic constraints, and each carries the name the new annotation would
//! get — the shared attribute value ("Female") or the members' lowest
//! common taxonomy subsumer ("wordnet_musician").

use prox_obs::Counter;
use prox_provenance::{AnnId, AnnKind, AnnStore, DomainId};
use prox_robust::{BudgetSession, BudgetStop};
use prox_taxonomy::{ConceptId, Taxonomy};

use crate::constraints::{concepts_of, shared_attr, ConstraintConfig, MergeRule};

/// Candidates produced by [`enumerate`] across all calls.
static CANDIDATES_ENUMERATED: Counter = Counter::new("candidates/enumerated");
/// Pairs rejected by the semantic constraints during enumeration.
static CANDIDATES_REJECTED: Counter = Counter::new("candidates/rejected");

/// One candidate single-step mapping.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The current-level annotations to merge (length = k).
    pub members: Vec<AnnId>,
    /// Name proposed for the new summary annotation.
    pub name: String,
    /// Domain of the members.
    pub domain: DomainId,
    /// Concept proposed for the new annotation (the members' LCS), when
    /// the members are concept-attached.
    pub concept: Option<ConceptId>,
}

impl Candidate {
    /// Flattened base members (what the new annotation will summarize).
    pub fn base_members(&self, store: &AnnStore) -> Vec<AnnId> {
        let mut out = Vec::new();
        self.base_members_into(store, &mut out);
        out
    }

    /// [`Candidate::base_members`] into a reused buffer.
    pub fn base_members_into(&self, store: &AnnStore, out: &mut Vec<AnnId>) {
        out.clear();
        for &m in &self.members {
            match &store.get(m).kind {
                AnnKind::Base => out.push(m),
                AnnKind::Summary { members } => out.extend_from_slice(members),
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Derive the display name and concept for a group of members.
fn name_for(
    members: &[AnnId],
    store: &AnnStore,
    taxonomy: Option<&Taxonomy>,
    rule: &MergeRule,
) -> (String, Option<ConceptId>) {
    // Prefer the taxonomy LCS when the rule is taxonomy-driven; otherwise
    // prefer the shared attribute value.
    let lcs = taxonomy.and_then(|t| concepts_of(members, store).and_then(|cs| t.lcs_many(&cs)));
    let attr = match rule {
        MergeRule::SharedAttribute { attrs } | MergeRule::SharedAttributeOrTaxonomy { attrs } => {
            shared_attr(members, store, attrs)
        }
        _ => shared_attr(members, store, &[]),
    };
    if matches!(rule, MergeRule::TaxonomyAncestor) {
        if let (Some(t), Some(c)) = (taxonomy, lcs) {
            return (t.name(c).to_owned(), Some(c));
        }
    }
    if let Some((_, value)) = attr {
        return (store.value_name(value).to_owned(), lcs);
    }
    if let (Some(t), Some(c)) = (taxonomy, lcs) {
        return (t.name(c).to_owned(), Some(c));
    }
    // Constraint `Any` with nothing shared: synthesize a neutral name.
    let joined = members
        .iter()
        .map(|&m| store.name(m))
        .collect::<Vec<_>>()
        .join("+");
    (format!("G({joined})"), lcs)
}

/// Enumerate candidate mappings over the given annotations.
///
/// For `k = 2` this is every constraint-satisfying unordered pair. For
/// `k > 2` each valid pair is greedily extended with further compatible
/// annotations (first-fit), giving `O(n²)` candidates of size ≤ k rather
/// than the intractable `O(n^k)`.
pub fn enumerate(
    anns: &[AnnId],
    store: &AnnStore,
    constraints: &ConstraintConfig,
    taxonomy: Option<&Taxonomy>,
    k: usize,
) -> Vec<Candidate> {
    enumerate_with(anns, store, constraints, taxonomy, k, None).0
}

/// Budget-aware [`enumerate`]: polls the session once per outer annotation
/// and stops early when the budget trips, returning the candidates found
/// so far plus the stop. Callers treat a partial enumeration as
/// best-so-far input for the anytime contract.
pub fn enumerate_with(
    anns: &[AnnId],
    store: &AnnStore,
    constraints: &ConstraintConfig,
    taxonomy: Option<&Taxonomy>,
    k: usize,
    mut budget: Option<&mut BudgetSession>,
) -> (Vec<Candidate>, Option<BudgetStop>) {
    assert!(k >= 2);
    let mergeable: Vec<AnnId> = anns
        .iter()
        .copied()
        .filter(|&a| constraints.rule(store.get(a).domain).is_some())
        .collect();
    let mut rejected = 0u64;
    let mut stopped = None;
    let mut out = Vec::new();
    'outer: for (i, &a) in mergeable.iter().enumerate() {
        if let Some(session) = budget.as_deref_mut() {
            if let Err(stop) = session.check() {
                stopped = Some(stop);
                break 'outer;
            }
        }
        for &b in &mergeable[i + 1..] {
            if !constraints.pair_ok(a, b, store, taxonomy) {
                rejected += 1;
                continue;
            }
            let mut members = vec![a, b];
            if k > 2 {
                for &c in &mergeable {
                    if members.len() >= k {
                        break;
                    }
                    if members.contains(&c) {
                        continue;
                    }
                    let mut extended = members.clone();
                    extended.push(c);
                    if constraints.group_ok(&extended, store, taxonomy) {
                        members = extended;
                    }
                }
            }
            let domain = store.get(a).domain;
            let Some(rule) = constraints.rule(domain) else {
                continue; // unreachable: mergeable() requires a rule per domain
            };
            let (name, concept) = name_for(&members, store, taxonomy, rule);
            out.push(Candidate {
                members,
                name,
                domain,
                concept,
            });
        }
    }
    CANDIDATES_ENUMERATED.add(out.len() as u64);
    CANDIDATES_REJECTED.add(rejected);
    (out, stopped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AnnStore, Vec<AnnId>, ConstraintConfig) {
        let mut s = AnnStore::new();
        let u1 = s.add_base_with("U1", "users", &[("gender", "F"), ("age", "18-24")]);
        let u2 = s.add_base_with("U2", "users", &[("gender", "F"), ("age", "25-34")]);
        let u3 = s.add_base_with("U3", "users", &[("gender", "M"), ("age", "25-34")]);
        let users = s.domain("users");
        let cfg =
            ConstraintConfig::new().allow(users, MergeRule::SharedAttribute { attrs: vec![] });
        (s, vec![u1, u2, u3], cfg)
    }

    #[test]
    fn pairs_respect_constraints() {
        let (s, anns, cfg) = setup();
        let cands = enumerate(&anns, &s, &cfg, None, 2);
        // (U1,U2) share gender=F; (U2,U3) share age=25-34; (U1,U3) share nothing.
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().any(|c| c.members == vec![anns[0], anns[1]]));
        assert!(cands.iter().any(|c| c.members == vec![anns[1], anns[2]]));
    }

    #[test]
    fn names_come_from_shared_attribute_value() {
        let (s, anns, cfg) = setup();
        let cands = enumerate(&anns, &s, &cfg, None, 2);
        let fem = cands
            .iter()
            .find(|c| c.members == vec![anns[0], anns[1]])
            .unwrap();
        assert_eq!(fem.name, "F");
        let age = cands
            .iter()
            .find(|c| c.members == vec![anns[1], anns[2]])
            .unwrap();
        assert_eq!(age.name, "25-34");
    }

    #[test]
    fn kway_extends_greedily() {
        let mut s = AnnStore::new();
        let anns: Vec<AnnId> = (0..4)
            .map(|i| s.add_base_with(&format!("U{i}"), "users", &[("gender", "F")]))
            .collect();
        let users = s.domain("users");
        let cfg =
            ConstraintConfig::new().allow(users, MergeRule::SharedAttribute { attrs: vec![] });
        let cands = enumerate(&anns, &s, &cfg, None, 3);
        assert!(cands.iter().all(|c| c.members.len() == 3));
        assert!(!cands.is_empty());
    }

    #[test]
    fn base_members_flatten_summaries() {
        let (mut s, anns, cfg) = setup();
        let users = s.domain("users");
        let g = s.add_summary("F", users, &[anns[0], anns[1]]);
        let cands = enumerate(&[g, anns[2]], &s, &cfg, None, 2);
        // g has attrs {gender=F}; U3 is M → nothing shared → no candidates.
        assert!(cands.is_empty());

        // But a summary of same-age users can merge with U3.
        let g2 = s.add_summary("25-34", users, &[anns[1], anns[2]]);
        let cands2 = enumerate(&[g2, anns[0]], &s, &cfg, None, 2);
        assert!(cands2.is_empty(), "g2 age=25-34 vs U1 age=18-24");
        let cands3 = enumerate(&[g2, anns[2]], &s, &cfg, None, 2);
        // g2 contains U3 already; still a legal pair structurally (shares
        // age=25-34) — the summarizer won't generate it because U3 no
        // longer appears in the expression, but enumeration is permissive.
        assert_eq!(cands3.len(), 1);
        assert_eq!(cands3[0].base_members(&s), {
            let mut v = vec![anns[1], anns[2]];
            v.sort();
            v
        });
    }

    #[test]
    fn tripped_budget_stops_enumeration_early() {
        use prox_robust::ExecutionBudget;
        let (s, anns, cfg) = setup();
        let budget = ExecutionBudget::unlimited().with_deadline_at(std::time::Instant::now());
        let mut session = budget.start();
        let (cands, stop) = enumerate_with(&anns, &s, &cfg, None, 2, Some(&mut session));
        assert!(cands.is_empty());
        assert_eq!(stop, Some(BudgetStop::Deadline));
        // Without a session the same call is the plain enumeration.
        let (cands, stop) = enumerate_with(&anns, &s, &cfg, None, 2, None);
        assert_eq!(cands.len(), 2);
        assert_eq!(stop, None);
    }

    #[test]
    fn taxonomy_lcs_names_page_groups() {
        let mut s = AnnStore::new();
        let pages = s.domain("pages");
        let p1 = s.add_base("Adele", pages, vec![]);
        let p2 = s.add_base("LoriBlack", pages, vec![]);
        let mut t = Taxonomy::new();
        t.subclass("wordnet_singer", "wordnet_musician");
        t.subclass("wordnet_guitarist", "wordnet_musician");
        s.set_concept(p1, t.by_name("wordnet_singer").unwrap().0);
        s.set_concept(p2, t.by_name("wordnet_guitarist").unwrap().0);
        let cfg = ConstraintConfig::new().allow(pages, MergeRule::TaxonomyAncestor);
        let cands = enumerate(&[p1, p2], &s, &cfg, Some(&t), 2);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].name, "wordnet_musician");
        assert_eq!(cands[0].concept, t.by_name("wordnet_musician"));
    }
}
