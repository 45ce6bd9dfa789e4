//! Synthetic MovieLens dataset (§5.1, Table 5.1 row 1).
//!
//! Generates users (gender, age range, occupation, zip code), movies
//! (title, year, primary genre) and 1–5 star ratings, then builds the
//! paper's provenance structure
//!
//! `(UserID₁·MovieTitle₁·MovieYear₁) ⊗ (Rating₁, 1) ⊕ …`
//!
//! keyed per movie (the `⊕_M` formal sum). Ratings follow a simple
//! user-bias + movie-bias model so aggregates have realistic structure.

use prox_core::{ConstraintConfig, MergeRule};
use prox_provenance::{
    AggKind, AggValue, AnnId, AnnStore, DomainId, Polynomial, ProvExpr, Tensor, Valuation,
    ValuationClass,
};
use prox_robust::fault::DetRng;

use crate::names;

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct MovieLensConfig {
    /// Number of users.
    pub users: usize,
    /// Number of movies.
    pub movies: usize,
    /// Expected ratings per user (each user rates a random subset).
    pub ratings_per_user: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MovieLensConfig {
    /// The PROX demo dataset: the `prox` CLI's default and the service's
    /// `demo` preset.
    pub const DEMO: MovieLensConfig = MovieLensConfig {
        users: 40,
        movies: 8,
        ratings_per_user: 2,
        seed: 2016,
    };
}

impl Default for MovieLensConfig {
    fn default() -> Self {
        MovieLensConfig {
            users: 30,
            movies: 6,
            ratings_per_user: 2,
            seed: 17,
        }
    }
}

/// One generated rating.
#[derive(Clone, Copy, Debug)]
pub struct Rating {
    /// The rating user.
    pub user: AnnId,
    /// The rated movie.
    pub movie: AnnId,
    /// The movie's year annotation.
    pub year: AnnId,
    /// The star value in 1..=5.
    pub stars: f64,
}

/// The generated dataset: annotation store, entity lists and ratings.
#[derive(Clone, Debug)]
pub struct MovieLens {
    /// Annotation store holding users, movies and years.
    pub store: AnnStore,
    /// User annotations.
    pub users: Vec<AnnId>,
    /// Movie annotations.
    pub movies: Vec<AnnId>,
    /// Ratings in generation order.
    pub ratings: Vec<Rating>,
    users_domain: DomainId,
    movies_domain: DomainId,
}

impl MovieLens {
    /// Generate a dataset.
    pub fn generate(cfg: MovieLensConfig) -> Self {
        assert!(cfg.users > 0 && cfg.movies > 0);
        let mut rng = DetRng::new(cfg.seed);
        let mut store = AnnStore::new();
        let users_domain = store.domain("users");
        let movies_domain = store.domain("movies");

        let mut movies = Vec::with_capacity(cfg.movies);
        let mut movie_years = Vec::with_capacity(cfg.movies);
        let mut movie_bias = Vec::with_capacity(cfg.movies);
        for ix in 0..cfg.movies {
            let title = names::MOVIE_TITLES[ix % names::MOVIE_TITLES.len()];
            let title = if ix < names::MOVIE_TITLES.len() {
                title.to_owned()
            } else {
                format!("{title}{}", ix / names::MOVIE_TITLES.len() + 2)
            };
            let year: i32 = 1990 + rng.below(14) as i32;
            let genre = *rng.choose(names::GENRES).unwrap_or(&names::GENRES[0]);
            let m = store.add_base_with(
                &title,
                "movies",
                &[("year", &year.to_string()), ("genre", genre)],
            );
            let y = store.add_base_with(&format!("Y{year}"), "years", &[]);
            movies.push(m);
            movie_years.push(y);
            movie_bias.push(rng.range_f64(-1.0, 1.0));
        }

        let mut users = Vec::with_capacity(cfg.users);
        let mut user_bias = Vec::with_capacity(cfg.users);
        for ix in 0..cfg.users {
            let gender = if rng.bool(0.5) { "M" } else { "F" };
            let age = *rng
                .choose(names::AGE_RANGES)
                .unwrap_or(&names::AGE_RANGES[0]);
            let occupation = *rng
                .choose(names::OCCUPATIONS)
                .unwrap_or(&names::OCCUPATIONS[0]);
            let zip = *rng
                .choose(names::ZIP_PREFIXES)
                .unwrap_or(&names::ZIP_PREFIXES[0]);
            let u = store.add_base_with(
                &format!("UID{}", ix + 1),
                "users",
                &[
                    ("gender", gender),
                    ("age_range", age),
                    ("occupation", occupation),
                    ("zip", zip),
                ],
            );
            users.push(u);
            user_bias.push(rng.range_f64(-1.0, 1.0));
        }

        let mut ratings = Vec::new();
        for (uix, &user) in users.iter().enumerate() {
            // Heterogeneous activity around the configured mean (like real
            // MovieLens users): between 1 and 2·mean ratings each.
            let n = (1 + rng.below((2 * cfg.ratings_per_user).max(1)))
                .min(cfg.movies)
                .max(1);
            let mut chosen: Vec<usize> = (0..cfg.movies).collect();
            // Partial Fisher–Yates: the first n entries are the sample.
            for i in 0..n {
                let j = i + rng.below(cfg.movies - i);
                chosen.swap(i, j);
            }
            for &mix in &chosen[..n] {
                let raw: f64 = 3.0 + user_bias[uix] + movie_bias[mix] + rng.range_f64(-1.0, 1.0);
                let stars = raw.round().clamp(1.0, 5.0);
                ratings.push(Rating {
                    user,
                    movie: movies[mix],
                    year: movie_years[mix],
                    stars,
                });
            }
        }
        // Fault injection: a `truncate` site simulates a partially-read
        // dataset by dropping a suffix of the generated ratings.
        ratings.truncate(prox_robust::fault::truncate_keep(ratings.len()));

        MovieLens {
            store,
            users,
            movies,
            ratings,
            users_domain,
            movies_domain,
        }
    }

    /// The users domain id.
    pub fn users_domain(&self) -> DomainId {
        self.users_domain
    }

    /// The movies domain id.
    pub fn movies_domain(&self) -> DomainId {
        self.movies_domain
    }

    /// Build the provenance for all movies.
    pub fn provenance(&self, agg: AggKind) -> ProvExpr {
        self.provenance_for(&self.movies, agg)
    }

    /// Build the provenance restricted to a selection of movies (the PROX
    /// selection service's job).
    pub fn provenance_for(&self, movies: &[AnnId], agg: AggKind) -> ProvExpr {
        let mut p = ProvExpr::new(agg);
        for r in &self.ratings {
            if !movies.contains(&r.movie) {
                continue;
            }
            let prov = Polynomial::var(r.user)
                .mul(&Polynomial::var(r.movie))
                .mul(&Polynomial::var(r.year));
            p.push(r.movie, Tensor::new(prov, AggValue::single(r.stars)));
        }
        p.simplify();
        p
    }

    /// The paper's mapping constraints: users may merge when they share one
    /// of gender / age range / occupation / zip code.
    pub fn constraints(&mut self) -> ConstraintConfig {
        let attrs = ["gender", "age_range", "occupation", "zip"]
            .iter()
            .map(|a| self.store.attr(a))
            .collect();
        ConstraintConfig::new().allow(self.users_domain, MergeRule::SharedAttribute { attrs })
    }

    /// Generate a valuation class over the rating users.
    pub fn valuations(&self, class: ValuationClass) -> Vec<Valuation> {
        class.generate(&self.store, &self.users, &[self.users_domain])
    }

    /// Movies whose title contains `needle` (case-insensitive) — the
    /// selection view's title search.
    pub fn search_titles(&self, needle: &str) -> Vec<AnnId> {
        let needle = needle.to_lowercase();
        self.movies
            .iter()
            .copied()
            .filter(|&m| self.store.name(m).to_lowercase().contains(&needle))
            .collect()
    }

    /// Movies matching a genre and/or year — the selection view's second
    /// mode.
    pub fn select_by(&mut self, genre: Option<&str>, year: Option<i32>) -> Vec<AnnId> {
        let genre_attr = self.store.attr("genre");
        let year_attr = self.store.attr("year");
        let genre_val = genre.map(|g| self.store.value(g));
        let year_val = year.map(|y| self.store.value(&y.to_string()));
        self.movies
            .iter()
            .copied()
            .filter(|&m| {
                let ann = self.store.get(m);
                genre_val.is_none_or(|g| ann.attr(genre_attr) == Some(g))
                    && year_val.is_none_or(|y| ann.attr(year_attr) == Some(y))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prox_provenance::Summarizable;

    #[test]
    fn generation_is_deterministic() {
        let a = MovieLens::generate(MovieLensConfig::default());
        let b = MovieLens::generate(MovieLensConfig::default());
        assert_eq!(a.ratings.len(), b.ratings.len());
        assert_eq!(
            a.ratings.iter().map(|r| r.stars as i64).sum::<i64>(),
            b.ratings.iter().map(|r| r.stars as i64).sum::<i64>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = MovieLens::generate(MovieLensConfig::default());
        let b = MovieLens::generate(MovieLensConfig {
            seed: 99,
            ..Default::default()
        });
        let sig = |d: &MovieLens| {
            d.ratings
                .iter()
                .map(|r| (r.user, r.movie, r.stars as i64))
                .collect::<Vec<_>>()
        };
        assert_ne!(sig(&a), sig(&b));
    }

    #[test]
    fn provenance_has_three_occurrences_per_rating() {
        let d = MovieLens::generate(MovieLensConfig::default());
        let p = d.provenance(AggKind::Max);
        assert_eq!(Summarizable::size(&p), d.ratings.len() * 3);
        assert_eq!(p.num_objects(), d.movies.len());
    }

    #[test]
    fn ratings_are_in_range() {
        let d = MovieLens::generate(MovieLensConfig {
            users: 100,
            movies: 10,
            ratings_per_user: 3,
            seed: 5,
        });
        assert!(d.ratings.iter().all(|r| (1.0..=5.0).contains(&r.stars)));
        // Heterogeneous activity: between 1 and 2·mean ratings per user.
        assert!(d.ratings.len() >= 100);
        assert!(d.ratings.len() <= 600);
    }

    #[test]
    fn selection_by_title_and_attrs() {
        let mut d = MovieLens::generate(MovieLensConfig {
            movies: 14,
            ..Default::default()
        });
        let titanic = d.search_titles("titan");
        assert!(titanic.len() >= 2, "Titanic family present");
        // select_by with no filters returns everything.
        let all = d.select_by(None, None);
        assert_eq!(all.len(), 14);
    }

    #[test]
    fn constraints_allow_shared_gender_users() {
        let mut d = MovieLens::generate(MovieLensConfig {
            users: 10,
            ..Default::default()
        });
        let cfg = d.constraints();
        let gender = d.store.attr("gender");
        let mut by_gender: Vec<Vec<AnnId>> = vec![vec![], vec![]];
        for &u in &d.users {
            let v = d.store.get(u).attr(gender).unwrap();
            by_gender[(d.store.value_name(v) == "F") as usize].push(u);
        }
        for group in by_gender.iter().filter(|g| g.len() >= 2) {
            assert!(cfg.pair_ok(group[0], group[1], &d.store, None));
        }
    }

    #[test]
    fn valuation_classes_generate() {
        let d = MovieLens::generate(MovieLensConfig::default());
        let single = d.valuations(ValuationClass::CancelSingleAnnotation);
        assert_eq!(single.len(), d.users.len());
        let attr = d.valuations(ValuationClass::CancelSingleAttribute);
        assert!(!attr.is_empty());
        assert!(attr.len() <= 2 + 7 + 19 + 10, "bounded by vocabulary");
    }

    #[test]
    fn provenance_for_subset_restricts_objects() {
        let d = MovieLens::generate(MovieLensConfig::default());
        let subset = vec![d.movies[0], d.movies[1]];
        let p = d.provenance_for(&subset, AggKind::Max);
        assert!(p.num_objects() <= 2);
        for (o, _) in p.entries() {
            assert!(subset.contains(o));
        }
    }
}
