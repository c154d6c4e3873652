//! CPU reference SpMV used to validate every simulated kernel.

use bro_matrix::{CsrMatrix, Scalar};

/// Serial CSR SpMV on the host — the gold reference.
pub fn csr_spmv<T: Scalar>(csr: &CsrMatrix<T>, x: &[T]) -> Vec<T> {
    csr.spmv(x).expect("shape mismatch in reference SpMV")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_paths_agree() {
        let coo = bro_matrix::generate::laplacian_2d::<f64>(8);
        let csr = CsrMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..64).map(|i| (i as f64).cos()).collect();
        let a = csr_spmv(&csr, &x);
        let c = coo.spmv_reference(&x).unwrap();
        assert_eq!(a, c);
    }
}
