//! Spatial domain decomposition (§4: "The simulation box is divided
//! into 16 domains, and one process for real-space part performs all
//! the calculation in each domain").
//!
//! A [`CartesianDecomposition`] splits the cubic box into a `dx×dy×dz`
//! grid of axis-aligned domains, assigns particles by position, and
//! computes the halo — the set of foreign particles within `r_cut` of a
//! domain, with their periodic image shifts ("each process should know
//! positions of neighboring particles before calling
//! MR1calcvdw_block2, that is what you have to manage with MPI
//! routines").

use mdm_core::boxsim::SimBox;
use mdm_core::vec3::Vec3;

/// A Cartesian decomposition of a cubic periodic box.
#[derive(Clone, Copy, Debug)]
pub struct CartesianDecomposition {
    simbox: SimBox,
    dims: [usize; 3],
}

impl CartesianDecomposition {
    /// Split `simbox` into `dims[0]·dims[1]·dims[2]` domains.
    pub fn new(simbox: SimBox, dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d >= 1));
        Self { simbox, dims }
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grid dimensions.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// The domain that owns a (canonical) position.
    pub fn domain_of(&self, r: Vec3) -> usize {
        let w = self.simbox.wrap(r);
        let l = self.simbox.l();
        let idx = |x: f64, d: usize| (((x / l) * d as f64) as usize).min(d - 1);
        let (ix, iy, iz) = (
            idx(w.x, self.dims[0]),
            idx(w.y, self.dims[1]),
            idx(w.z, self.dims[2]),
        );
        (iz * self.dims[1] + iy) * self.dims[0] + ix
    }

    /// The `[lo, hi)` extent of domain `d` along each axis.
    pub fn extent(&self, d: usize) -> [(f64, f64); 3] {
        assert!(d < self.len());
        let l = self.simbox.l();
        let ix = d % self.dims[0];
        let iy = (d / self.dims[0]) % self.dims[1];
        let iz = d / (self.dims[0] * self.dims[1]);
        let side = |i: usize, n: usize| {
            let w = l / n as f64;
            (i as f64 * w, (i + 1) as f64 * w)
        };
        [
            side(ix, self.dims[0]),
            side(iy, self.dims[1]),
            side(iz, self.dims[2]),
        ]
    }

    /// Indices of the particles each domain owns.
    pub fn assign(&self, positions: &[Vec3]) -> Vec<Vec<u32>> {
        let mut owned = vec![Vec::new(); self.len()];
        for (i, &r) in positions.iter().enumerate() {
            owned[self.domain_of(r)].push(i as u32);
        }
        owned
    }

    /// Periodic distance from a wrapped coordinate to an interval
    /// `[lo, hi)` along one axis of length `l`.
    fn axis_distance(x: f64, lo: f64, hi: f64, l: f64) -> f64 {
        if x >= lo && x < hi {
            return 0.0;
        }
        let d1 = (x - lo).rem_euclid(l).min((lo - x).rem_euclid(l));
        let d2 = (x - hi).rem_euclid(l).min((hi - x).rem_euclid(l));
        d1.min(d2)
    }

    /// The halo of domain `d`: every particle not owned by `d` whose
    /// periodic distance to the domain region is at most `r_cut`,
    /// returned with its canonical (wrapped) position. Pair loops
    /// combine owned + halo particles under the **minimum-image**
    /// convention — with domains that can be wider than `L/2` along an
    /// axis, a single per-particle image shift cannot make plain
    /// distances correct, so the image resolution stays in the pair
    /// loop (exactly what `r_cut ≤ L/2` guarantees to be unambiguous).
    pub fn halo(&self, d: usize, positions: &[Vec3], r_cut: f64) -> Vec<(u32, Vec3)> {
        assert!(r_cut <= self.simbox.max_cutoff() + 1e-12);
        let l = self.simbox.l();
        let ext = self.extent(d);
        let mut out = Vec::new();
        for (i, &r) in positions.iter().enumerate() {
            if self.domain_of(r) == d {
                continue;
            }
            let w = self.simbox.wrap(r);
            let dx = Self::axis_distance(w.x, ext[0].0, ext[0].1, l);
            let dy = Self::axis_distance(w.y, ext[1].0, ext[1].1, l);
            let dz = Self::axis_distance(w.z, ext[2].0, ext[2].1, l);
            if dx * dx + dy * dy + dz * dz > r_cut * r_cut {
                continue;
            }
            out.push((i as u32, w));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn positions(n: usize, l: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect()
    }

    #[test]
    fn paper_layout_is_16_domains() {
        let dims = crate::parallel::ParallelConfig::paper().real_dims;
        let d = CartesianDecomposition::new(SimBox::cubic(100.0), dims);
        assert_eq!(d.len(), 16);
    }

    #[test]
    fn assignment_partitions_particles() {
        let sb = SimBox::cubic(20.0);
        let d = CartesianDecomposition::new(sb, [2, 2, 2]);
        let pos = positions(500, 20.0, 1);
        let owned = d.assign(&pos);
        let total: usize = owned.iter().map(Vec::len).sum();
        assert_eq!(total, 500);
        for (dom, list) in owned.iter().enumerate() {
            for &i in list {
                assert_eq!(d.domain_of(pos[i as usize]), dom);
            }
        }
    }

    #[test]
    fn extent_contains_owned_particles() {
        let sb = SimBox::cubic(12.0);
        let d = CartesianDecomposition::new(sb, [3, 2, 1]);
        let pos = positions(300, 12.0, 2);
        for (i, &r) in pos.iter().enumerate() {
            let dom = d.domain_of(r);
            let ext = d.extent(dom);
            let w = sb.wrap(r);
            assert!(w.x >= ext[0].0 && w.x < ext[0].1 + 1e-12, "particle {i}");
            assert!(w.y >= ext[1].0 && w.y < ext[1].1 + 1e-12);
            assert!(w.z >= ext[2].0 && w.z < ext[2].1 + 1e-12);
        }
    }

    #[test]
    fn halo_is_complete_for_pair_coverage() {
        // Every pair (i owned by d, j not owned) within r_cut must have
        // j in d's halo — otherwise the domain would miss a force.
        let sb = SimBox::cubic(18.0);
        let d = CartesianDecomposition::new(sb, [2, 2, 2]);
        let pos = positions(250, 18.0, 3);
        let r_cut = 4.0;
        let owned = d.assign(&pos);
        for (dom, own) in owned.iter().enumerate() {
            let halo = d.halo(dom, &pos, r_cut);
            let halo_set: std::collections::HashSet<u32> =
                halo.iter().map(|(i, _)| *i).collect();
            for &i in own {
                for (j, &rj) in pos.iter().enumerate() {
                    if d.domain_of(rj) == dom {
                        continue;
                    }
                    if sb.dist_sq(pos[i as usize], rj) <= r_cut * r_cut {
                        assert!(
                            halo_set.contains(&(j as u32)),
                            "domain {dom}: pair ({i},{j}) not covered by halo"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn halo_positions_are_canonical() {
        let sb = SimBox::cubic(15.0);
        let d = CartesianDecomposition::new(sb, [3, 1, 1]);
        let pos = positions(200, 15.0, 4);
        for dom in 0..d.len() {
            for (j, p) in d.halo(dom, &pos, 2.4) {
                assert_eq!(p, sb.wrap(pos[j as usize]));
                // Halo members are never owned by the domain itself.
                assert_ne!(d.domain_of(p), dom);
            }
        }
    }

    #[test]
    fn halo_excludes_far_particles() {
        // A particle far from the domain (periodic distance > r_cut)
        // must not be in the halo: the halo is tight, not "everything".
        let sb = SimBox::cubic(30.0);
        let d = CartesianDecomposition::new(sb, [3, 3, 3]);
        let pos = positions(400, 30.0, 5);
        let r_cut = 3.0;
        let halo = d.halo(0, &pos, r_cut);
        // Domain 0 is [0,10)^3; a particle at the box centre ~ (15,15,15)
        // is > 3 A away; roughly half the box should be excluded.
        assert!(halo.len() < pos.len() / 2, "halo too fat: {}", halo.len());
    }
}
