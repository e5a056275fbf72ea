//! Pins the tiled GEMM behind `Matrix::matmul` / `Matrix::matmul_into` to
//! the row kernel and to row-wise `vec_matmul_into`, **bit for bit**, over
//! ragged shapes, including products several 64-row blocks deep.

use million_tensor::gemm::{matmul_rows_into, MR, NR};
use million_tensor::ops::vec_matmul_into;
use million_tensor::{GemmScratch, Matrix};
use proptest::prelude::*;

/// Deterministic entries with exact zeros, negative zeros and a wide
/// exponent range mixed in, so skipped terms and cancellations occur.
fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        match state % 11 {
            0 => 0.0,
            1 => -0.0,
            2 => (state >> 40) as f32 * 1e-30,
            _ => ((state >> 33) % 2001) as f32 * 0.01 - 10.0,
        }
    })
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_kernels_agree(m: usize, k: usize, n: usize, seed: u64) {
    let a = matrix(m, k, seed);
    let b = matrix(k, n, seed ^ 0xB);
    let label = format!("{m}x{k}x{n} seed {seed}");

    let mut rows = Matrix::default();
    matmul_rows_into(&a, &b, &mut rows);
    assert_eq!(rows.shape(), (m, n), "{label}");

    let allocating = a.matmul(&b);
    assert_eq!(allocating.shape(), (m, n), "{label}");
    assert_eq!(bits(&allocating), bits(&rows), "{label}: matmul");

    // One scratch and one output across both calls: the second runs warm.
    let mut scratch = GemmScratch::new();
    let mut into = Matrix::from_fn(3, 3, |_, _| f32::NAN);
    for pass in 0..2 {
        a.matmul_into(&b, &mut scratch, &mut into);
        assert_eq!(bits(&into), bits(&rows), "{label}: matmul_into pass {pass}");
    }

    let mut row = vec![f32::NAN; n];
    for r in 0..m {
        vec_matmul_into(a.row(r), &b, &mut row);
        let row_bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            &bits(&rows)[r * n..(r + 1) * n],
            row_bits,
            "{label}: row {r}"
        );
    }
}

#[test]
fn edge_shapes_agree() {
    // Fewer rows than a tile, ragged row and column tails, the pack
    // threshold, one row past a 64-row block, and empty/unit/odd `k`.
    for m in [1, MR - 1, MR, 15, 16, 17, 19, 64, 65, 67, 130] {
        for k in [0, 1, 7, 32] {
            for n in [1, NR - 1, NR, NR + 1, 3 * NR + 5] {
                assert_kernels_agree(m, k, n, (m * 131 + k * 17 + n) as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_agree_on_arbitrary_shapes(
        m in 1usize..140,
        k in 0usize..70,
        n in 1usize..45,
        seed in 0u64..1000,
    ) {
        assert_kernels_agree(m, k, n, seed);
    }
}

/// Through one warm scratch, against the row kernel, on shapes several
/// 64-row blocks deep with the last block ragged.
#[test]
fn fanned_out_products_match_the_row_kernel() {
    let mut scratch = GemmScratch::new();
    let (mut out, mut rows) = (Matrix::default(), Matrix::default());
    for (seed, (m, k, n)) in [(200, 64, 72), (131, 33, 19), (257, 16, 40)]
        .into_iter()
        .enumerate()
    {
        let a = matrix(m, k, 77 + seed as u64);
        let b = matrix(k, n, 91 + seed as u64);
        a.matmul_into(&b, &mut scratch, &mut out);
        matmul_rows_into(&a, &b, &mut rows);
        assert_eq!(bits(&out), bits(&rows), "{m}x{k}x{n}");
    }
}
