//! Lloyd's k-means with k-means++ seeding.
//!
//! Used both for PQ codebook training (N-dimensional subvectors) and for
//! KVQuant-style non-uniform scalar quantization (1-dimensional values).

use million_tensor::ops::squared_distance;
use million_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;

use crate::QuantError;

/// Options controlling a k-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansOptions {
    /// Maximum number of Lloyd iterations.
    pub max_iters: usize,
    /// Convergence threshold on the relative change of total inertia.
    pub tolerance: f64,
}

impl Default for KMeansOptions {
    fn default() -> Self {
        Self {
            max_iters: 25,
            tolerance: 1e-4,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// `[k, dim]` centroid matrix.
    pub centroids: Matrix,
    /// Cluster assignment for every input sample.
    pub assignments: Vec<u16>,
    /// Final total within-cluster sum of squared distances.
    pub inertia: f64,
    /// Number of Lloyd iterations actually performed.
    pub iterations: usize,
}

/// Runs k-means++ initialised Lloyd's algorithm on the rows of `samples`.
///
/// # Errors
///
/// Returns [`QuantError::InvalidConfig`] if `k == 0` or `k > u16::MAX + 1`,
/// and [`QuantError::InsufficientData`] if there are no samples.
pub fn kmeans(
    samples: &Matrix,
    k: usize,
    options: &KMeansOptions,
    rng: &mut StdRng,
) -> Result<KMeansResult, QuantError> {
    lloyd(samples, k, options, rng, nearest_in_planes)
}

/// [`kmeans`] with the assignment-step scan as a parameter
/// (`scan(sample, planes, k)` over the `[dim][k]` centroid planes), so the
/// tests can drive the same loop with the scalar reference scan.
pub(crate) fn lloyd(
    samples: &Matrix,
    k: usize,
    options: &KMeansOptions,
    rng: &mut StdRng,
    scan: impl Fn(&[f32], &[f32], usize) -> (usize, f32) + Sync,
) -> Result<KMeansResult, QuantError> {
    if k == 0 || k > (u16::MAX as usize + 1) {
        return Err(QuantError::InvalidConfig(format!(
            "cluster count {k} not in 1..=65536"
        )));
    }
    let n = samples.rows();
    let dim = samples.cols();
    if n == 0 || dim == 0 {
        return Err(QuantError::InsufficientData(
            "k-means requires at least one sample with nonzero dimension".into(),
        ));
    }

    let mut centroids = init_plus_plus(samples, k, rng);
    let mut assignments = vec![0u16; n];
    let mut prev_inertia = f64::INFINITY;
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..options.max_iters {
        iterations = iter + 1;
        // Assignment step (parallel over samples), scanning the centroids
        // channel-major so the distances of 16 centroids advance together.
        let planes = centroids.transpose();
        let results: Vec<(u16, f64)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let (best, dist) = scan(samples.row(i), planes.as_slice(), k);
                (best as u16, dist as f64)
            })
            .collect();
        inertia = 0.0;
        for (i, (a, d)) in results.into_iter().enumerate() {
            assignments[i] = a;
            inertia += d;
        }

        // Update step.
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for (i, &a) in assignments.iter().enumerate() {
            let row = samples.row(i);
            counts[a as usize] += 1;
            let base = a as usize * dim;
            for (j, &v) in row.iter().enumerate() {
                sums[base + j] += v as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed empty clusters with a random sample to keep all
                // 2^nbits codebook entries useful.
                let pick = rng.gen_range(0..n);
                let row = samples.row(pick);
                for (j, &v) in row.iter().enumerate() {
                    centroids.set(c, j, v);
                }
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            for j in 0..dim {
                centroids.set(c, j, (sums[c * dim + j] * inv) as f32);
            }
        }

        if prev_inertia.is_finite() {
            let denom = prev_inertia.abs().max(f64::MIN_POSITIVE);
            if ((prev_inertia - inertia) / denom).abs() < options.tolerance {
                break;
            }
        }
        prev_inertia = inertia;
    }

    Ok(KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    })
}

/// Centroids scanned together by [`nearest_in_planes`]: four SSE registers
/// of running minima.
const LANES: usize = 16;

/// Finds the nearest centroid (index, squared distance) of `sample` among
/// `k` centroids stored channel-major: `planes[j * k + c]` is channel `j` of
/// centroid `c`, so `planes.len() == sample.len() * k`.
///
/// The one nearest-centroid scan of the crate — PQ encoding runs it once per
/// subspace, k-means once per sample and iteration. Each distance
/// accumulates from `0.0` in channel order, as
/// [`million_tensor::ops::squared_distance`] does, and the winner is the
/// smallest distance, the lowest index on ties; NaN distances never win and
/// an all-infinite scan returns index 0 — exactly the strict-`<` first-wins
/// rule of a scalar scan over row-major centroids, which a full `LANES`
/// chunk follows with one running `(min, chunk)` pair per lane instead of
/// one chain of `k` dependent compares.
///
/// # Panics
///
/// Panics if `planes.len() != sample.len() * k`.
// analyze: no-alloc
pub fn nearest_in_planes(sample: &[f32], planes: &[f32], k: usize) -> (usize, f32) {
    assert_eq!(planes.len(), sample.len() * k, "centroid plane shape");
    // A known channel count lets the compiler unroll the distance loop and
    // keep a whole chunk of lanes in registers.
    match sample.len() {
        1 => scan_planes(&sample[..1], planes, k),
        2 => scan_planes(&sample[..2], planes, k),
        4 => scan_planes(&sample[..4], planes, k),
        8 => scan_planes(&sample[..8], planes, k),
        _ => scan_planes(sample, planes, k),
    }
}

#[inline(always)]
fn scan_planes(sample: &[f32], planes: &[f32], k: usize) -> (usize, f32) {
    let chunks = k / LANES;
    let mut lane_min = [f32::INFINITY; LANES];
    let mut lane_chunk = [0u32; LANES];
    for chunk in 0..chunks {
        let mut dist = [0.0f32; LANES];
        for (j, &s) in sample.iter().enumerate() {
            let plane = &planes[j * k + chunk * LANES..][..LANES];
            for (d, &p) in dist.iter_mut().zip(plane) {
                let diff = s - p;
                *d += diff * diff;
            }
        }
        for l in 0..LANES {
            let closer = dist[l] < lane_min[l];
            lane_min[l] = if closer { dist[l] } else { lane_min[l] };
            lane_chunk[l] = if closer { chunk as u32 } else { lane_chunk[l] };
        }
    }
    let mut best = 0usize;
    let mut best_dist = f32::INFINITY;
    for l in 0..LANES {
        let c = lane_chunk[l] as usize * LANES + l;
        if lane_min[l] < best_dist || (lane_min[l] == best_dist && c < best) {
            best_dist = lane_min[l];
            best = c;
        }
    }
    // The `k % LANES` tail holds the highest indices, so strict `<` keeps
    // the first-wins rule.
    for c in chunks * LANES..k {
        let mut d = 0.0f32;
        for (j, &s) in sample.iter().enumerate() {
            let diff = s - planes[j * k + c];
            d += diff * diff;
        }
        if d < best_dist {
            best_dist = d;
            best = c;
        }
    }
    (best, best_dist)
}

/// The scalar scan over row-major centroids that [`nearest_in_planes`]
/// replaced, kept as its bit-identity reference.
#[cfg(test)]
pub(crate) fn nearest_centroid(sample: &[f32], centroids: &Matrix) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_dist = f32::INFINITY;
    for c in 0..centroids.rows() {
        let d = squared_distance(sample, centroids.row(c));
        if d < best_dist {
            best_dist = d;
            best = c;
        }
    }
    (best, best_dist)
}

/// [`nearest_centroid`] behind the plane-scan signature, for driving
/// [`lloyd`] with the reference scan.
#[cfg(test)]
pub(crate) fn reference_scan(sample: &[f32], planes: &[f32], k: usize) -> (usize, f32) {
    let planes = Matrix::from_vec(sample.len(), k, planes.to_vec()).expect("plane shape");
    nearest_centroid(sample, &planes.transpose())
}

/// k-means++ seeding: the first centroid is sampled uniformly, subsequent
/// centroids proportionally to their squared distance from the closest
/// already-chosen centroid.
fn init_plus_plus(samples: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = samples.rows();
    let dim = samples.cols();
    let mut centroids = Matrix::zeros(k, dim);

    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(samples.row(first));

    let mut min_dist: Vec<f32> = (0..n)
        .map(|i| squared_distance(samples.row(i), centroids.row(0)))
        .collect();

    for c in 1..k {
        let total: f64 = min_dist.iter().map(|&d| d as f64).sum();
        let pick = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in min_dist.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.row_mut(c).copy_from_slice(samples.row(pick));
        for (i, slot) in min_dist.iter_mut().enumerate() {
            let d = squared_distance(samples.row(i), centroids.row(c));
            if d < *slot {
                *slot = d;
            }
        }
    }
    centroids
}

/// Specialised 1-D k-means over a flat slice of values, returning `k` sorted
/// centroid levels. Used by the NUQ quantizer.
///
/// # Errors
///
/// Same failure modes as [`kmeans`].
pub fn kmeans_1d(
    values: &[f32],
    k: usize,
    options: &KMeansOptions,
    rng: &mut StdRng,
) -> Result<Vec<f32>, QuantError> {
    let samples = Matrix::from_vec(values.len(), 1, values.to_vec())
        .map_err(|e| QuantError::ShapeMismatch(e.to_string()))?;
    let result = kmeans(&samples, k, options, rng)?;
    let mut levels: Vec<f32> = (0..k).map(|c| result.centroids.get(c, 0)).collect();
    levels.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use million_tensor::init::seeded_rng;
    use proptest::prelude::*;

    fn two_blob_data(n_per: usize) -> Matrix {
        Matrix::from_fn(n_per * 2, 2, |r, c| {
            let centre = if r < n_per { -5.0 } else { 5.0 };
            centre + ((r * 7 + c * 3) % 10) as f32 * 0.05
        })
    }

    #[test]
    fn rejects_zero_clusters() {
        let data = two_blob_data(4);
        assert!(kmeans(&data, 0, &KMeansOptions::default(), &mut seeded_rng(0)).is_err());
    }

    #[test]
    fn rejects_empty_data() {
        let data = Matrix::zeros(0, 4);
        assert!(kmeans(&data, 2, &KMeansOptions::default(), &mut seeded_rng(0)).is_err());
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blob_data(50);
        let result = kmeans(&data, 2, &KMeansOptions::default(), &mut seeded_rng(1)).unwrap();
        // Every sample in the first blob shares an assignment, likewise the second.
        let first = result.assignments[0];
        assert!(result.assignments[..50].iter().all(|&a| a == first));
        let second = result.assignments[50];
        assert_ne!(first, second);
        assert!(result.assignments[50..].iter().all(|&a| a == second));
        // Centroids sit near -5 and +5.
        let mut xs: Vec<f32> = (0..2).map(|c| result.centroids.get(c, 0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[0] + 5.0).abs() < 0.5);
        assert!((xs[1] - 5.0).abs() < 0.5);
    }

    #[test]
    fn more_clusters_than_points_reseeds_empty_clusters() {
        let data = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]).unwrap();
        let result = kmeans(&data, 8, &KMeansOptions::default(), &mut seeded_rng(2)).unwrap();
        assert_eq!(result.centroids.rows(), 8);
        assert!(result.assignments.iter().all(|&a| (a as usize) < 8));
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = two_blob_data(40);
        let opts = KMeansOptions::default();
        let i2 = kmeans(&data, 2, &opts, &mut seeded_rng(3)).unwrap().inertia;
        let i8 = kmeans(&data, 8, &opts, &mut seeded_rng(3)).unwrap().inertia;
        assert!(i8 <= i2 + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blob_data(30);
        let opts = KMeansOptions::default();
        let a = kmeans(&data, 4, &opts, &mut seeded_rng(9)).unwrap();
        let b = kmeans(&data, 4, &opts, &mut seeded_rng(9)).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids.as_slice(), b.centroids.as_slice());
    }

    #[test]
    fn kmeans_1d_levels_are_sorted() {
        let values: Vec<f32> = (0..100).map(|i| (i % 10) as f32).collect();
        let levels = kmeans_1d(&values, 4, &KMeansOptions::default(), &mut seeded_rng(4)).unwrap();
        assert_eq!(levels.len(), 4);
        for w in levels.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn nearest_centroid_picks_closest() {
        let centroids = Matrix::from_vec(2, 1, vec![0.0, 10.0]).unwrap();
        assert_eq!(nearest_centroid(&[1.0], &centroids).0, 0);
        assert_eq!(nearest_centroid(&[9.0], &centroids).0, 1);
    }

    fn assert_scans_agree(sample: &[f32], centroids: &Matrix) {
        let (want, want_dist) = nearest_centroid(sample, centroids);
        let planes = centroids.transpose();
        let (got, got_dist) = nearest_in_planes(sample, planes.as_slice(), centroids.rows());
        assert_eq!(
            (got, got_dist.to_bits()),
            (want, want_dist.to_bits()),
            "k={} dim={} sample={sample:?}",
            centroids.rows(),
            centroids.cols()
        );
    }

    #[test]
    fn plane_scan_is_bit_identical_to_the_scalar_scan() {
        // Coordinates on a coarse grid force exact distance ties and
        // duplicate centroids; the winner must still be the first index.
        for k in [8usize, 16, 40, 64, 256] {
            for dim in [1usize, 2, 3, 4, 8] {
                let centroids = Matrix::from_fn(k, dim, |c, j| {
                    ((c * 7 + j * 5 + c / 3) % 9) as f32 * 0.5 - 2.0
                });
                for probe in 0..40usize {
                    let sample: Vec<f32> = (0..dim)
                        .map(|j| ((probe * 11 + j * 3) % 17) as f32 * 0.25 - 2.0)
                        .collect();
                    assert_scans_agree(&sample, &centroids);
                }
                // Off-grid samples: distinct distances, rounding in play.
                let mut rng = seeded_rng((k * 31 + dim) as u64);
                let samples = million_tensor::init::normal_matrix(&mut rng, 40, dim, 0.0, 1.3);
                for r in 0..samples.rows() {
                    assert_scans_agree(samples.row(r), &centroids);
                }
            }
        }
    }

    #[test]
    fn plane_scan_never_selects_nan_and_defaults_to_index_zero() {
        for k in [8usize, 40, 64] {
            // Every distance NaN, or every distance infinite: index 0.
            assert_scans_agree(&[f32::NAN, 0.0], &Matrix::zeros(k, 2));
            assert_scans_agree(&[f32::INFINITY, 0.0], &Matrix::zeros(k, 2));
            // NaN centroids are skipped wherever they sit, ties included.
            let centroids = Matrix::from_fn(k, 2, |c, j| match (c % 5, j) {
                (0, 0) => f32::NAN,
                (1, _) => f32::INFINITY,
                _ => 1.0,
            });
            assert_scans_agree(&[1.0, 1.0], &centroids);
            assert_scans_agree(&[0.25, -3.0], &centroids);
        }
    }

    #[test]
    fn lloyd_is_bit_identical_under_the_reference_scan() {
        let data = Matrix::from_fn(300, 2, |r, c| ((r * 13 + c * 7) % 23) as f32 * 0.37 - 4.0);
        let opts = KMeansOptions::default();
        for k in [5usize, 16, 64] {
            let fast = kmeans(&data, k, &opts, &mut seeded_rng(6)).unwrap();
            let slow = lloyd(&data, k, &opts, &mut seeded_rng(6), reference_scan).unwrap();
            assert_eq!(fast.assignments, slow.assignments);
            assert_eq!(fast.iterations, slow.iterations);
            assert_eq!(fast.inertia.to_bits(), slow.inertia.to_bits());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast.centroids), bits(&slow.centroids));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn assignments_match_nearest_centroid(seed in 0u64..50, k in 1usize..6) {
            let data = Matrix::from_fn(40, 3, |r, c| ((r * 13 + c * 7 + seed as usize) % 17) as f32 - 8.0);
            let result = kmeans(&data, k, &KMeansOptions::default(), &mut seeded_rng(seed)).unwrap();
            for i in 0..data.rows() {
                let (best, _) = nearest_centroid(data.row(i), &result.centroids);
                let assigned = result.assignments[i] as usize;
                let d_best = squared_distance(data.row(i), result.centroids.row(best));
                let d_assigned = squared_distance(data.row(i), result.centroids.row(assigned));
                // The recorded assignment can differ from the final centroids by
                // at most the last update step's movement; allow slack.
                prop_assert!(d_assigned <= d_best + 1.0);
            }
        }
    }
}
