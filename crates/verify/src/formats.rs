//! Every SpMV path under differential test.
//!
//! [`kernels`] is `bro_kernels::registry::all()` followed by the one
//! distributed kernel, `bro_gpu_cluster::ClusterKernel::evaluation_set()`.
//! The cluster cannot sit in the registry itself (`bro-gpu-cluster`
//! depends on `bro-kernels`), and this crate sits above both, so it is the
//! one place the two lists are chained. The fuzzer, corpus replay and the
//! CLIs iterate it; the golden suite iterates the registry directly.

use std::sync::OnceLock;

use bro_gpu_cluster::ClusterKernel;
use bro_kernels::registry::{self, SpmvKernel};

/// Every single-device registry kernel, in registry order, then the
/// 3-device cluster (BRO-HYB partitions).
pub fn kernels() -> &'static [&'static dyn SpmvKernel] {
    static KERNELS: OnceLock<Vec<&'static dyn SpmvKernel>> = OnceLock::new();
    KERNELS.get_or_init(|| {
        let cluster: &'static ClusterKernel = Box::leak(Box::new(ClusterKernel::evaluation_set()));
        registry::all().iter().copied().chain([cluster as &dyn SpmvKernel]).collect()
    })
}

/// Looks a kernel of [`kernels`] up by its [`SpmvKernel::name`].
pub fn kernel(name: &str) -> Option<&'static dyn SpmvKernel> {
    kernels().iter().copied().find(|k| k.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for &k in kernels() {
            assert_eq!(kernel(k.name()).map(|f| f.name()), Some(k.name()));
        }
        assert!(kernel("elliptical").is_none());
    }

    /// The list is the registry, in order, plus the cluster: a kernel added
    /// to `bro-kernels` reaches the fuzzer and replay without an edit here.
    #[test]
    fn registry_covers_every_exported_kernel() {
        let names: Vec<&str> = kernels().iter().map(|k| k.name()).collect();
        let registry: Vec<&str> = registry::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 15);
        assert_eq!(names[..registry.len()], registry[..]);
        assert_eq!(names.last(), Some(&"cluster"));
    }
}
