//! Unit tests of [`crate::ModelRepository`] through its public surface (and
//! of the served model through it), mounted at the crate root as the
//! test-only module `repository` — the path their ids were recorded under.

pub(crate) mod tests {
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    use dsstc_kernels::EncodingSpec;
    use dsstc_sim::GpuConfig;
    use dsstc_tensor::Matrix;

    use crate::request::{ModelId, ModelKey};
    use crate::store::{artifact_name, lock_store, parse_artifact_name};
    use crate::{CacheBudget, ModelRepository, WarmBootReport};

    fn repo() -> ModelRepository {
        ModelRepository::new(GpuConfig::v100(), 64)
    }

    /// A unique, self-cleaning temp directory for disk-cache tests.
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "dsstc-repo-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn first_get_misses_then_hits() {
        let r = repo();
        assert!(r.is_empty());
        let key = ModelKey::new(ModelId::BertBase, None);
        let m1 = r.get(key);
        assert_eq!((r.counters().hits, r.counters().misses), (0, 1));
        let m2 = r.get(key);
        assert_eq!((r.counters().hits, r.counters().misses), (1, 1));
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(r.len(), 1);
        assert!((r.hit_rate() - 0.5).abs() < 1e-12);
        // No disk tier: the miss was a fresh encode.
        let counters = r.counters();
        assert_eq!(counters.fresh_encodes, 1);
        assert_eq!(counters.disk_loads, 0);
        assert!(counters.fresh_encode_ms >= 0.0);
        assert!(!m1.from_disk);
    }

    #[test]
    fn distinct_sparsities_are_distinct_cache_entries() {
        let r = repo();
        let _ = r.get(ModelKey::new(ModelId::RnnLm, Some(0.8)));
        let _ = r.get(ModelKey::new(ModelId::RnnLm, Some(0.95)));
        let _ = r.get(ModelKey::new(ModelId::RnnLm, None));
        assert_eq!(r.len(), 3);
        assert_eq!(r.counters().misses, 3);
    }

    #[test]
    fn distinct_specs_are_distinct_cache_entries_with_matching_tilings() {
        let r = repo();
        let key = ModelKey::new(ModelId::BertBase, Some(0.9));
        let v100 = r.get_for(key, EncodingSpec::for_gpu(&GpuConfig::v100()));
        let a100 = r.get_for(key, EncodingSpec::for_gpu(&GpuConfig::a100()));
        assert_eq!(r.len(), 2);
        assert_eq!(r.counters().misses, 2);
        assert_ne!(v100.spec, a100.spec);
        for (lv, la) in v100.layers.iter().zip(&a100.layers) {
            assert!(v100.spec.matches_b(&lv.weights));
            assert!(a100.spec.matches_b(&la.weights));
            // Same pruned weights under both tilings.
            assert_eq!(lv.weights.decode(), la.weights.decode(), "{}", lv.name);
        }
        // Each spec's model executes on its own kernel and agrees with the
        // other device's result.
        let input = Matrix::random_sparse(4, 64, 0.5, dsstc_tensor::SparsityPattern::Uniform, 1);
        let out_v = v100.forward(r.kernel(), &input);
        let out_a = a100.forward(&r.kernel_for(a100.spec), &input);
        assert!(out_v.approx_eq(&out_a, 1e-3));
    }

    #[test]
    fn encoded_layers_match_table_and_override() {
        let r = repo();
        let m = r.get(ModelKey::new(ModelId::BertBase, Some(0.9)));
        assert_eq!(m.layers.len(), ModelId::BertBase.network().layers().len());
        for layer in &m.layers {
            assert!((layer.weights.sparsity() - 0.9).abs() < 0.02, "{}", layer.name);
            assert_eq!(layer.layer.weight_sparsity, 0.9);
            assert!(!layer.relu);
        }
        assert!(m.layers.iter().all(|l| l.weights.nnz() > 0));
        assert!(m.encoded_bytes() > 0);
        assert!(m.encode_ms >= 0.0);
    }

    #[test]
    fn forward_matches_decoded_dense_reference() {
        let r = ModelRepository::new(GpuConfig::v100(), 32);
        let m = r.get(ModelKey::new(ModelId::ResNet18, Some(0.85)));
        let input = Matrix::random_sparse(8, 32, 0.5, dsstc_tensor::SparsityPattern::Uniform, 3);
        let out = m.forward(r.kernel(), &input);
        // Dense reference: decode each encoded layer and replay the chain.
        let mut reference = input.clone();
        for layer in &m.layers {
            reference = reference.matmul(&layer.weights.decode());
            reference = reference.relu();
        }
        assert_eq!(out.rows(), 8);
        assert_eq!(out.cols(), 32);
        assert!(out.approx_eq(&reference, 5e-2));
    }

    #[test]
    fn forward_matches_the_scalar_layer_walk_bitwise_once_activations_overflow() {
        // At width 256 the proxy's activations grow about threefold per
        // layer, so order-1 features pass FP16's largest value before the
        // last layer and the tail of the walk runs on infinities and NaNs —
        // where the word kernel must still issue exactly the scalar
        // reference's MACs.
        let r = ModelRepository::new(GpuConfig::v100(), 256);
        let m = r.get(ModelKey::new(ModelId::ResNet50, None));
        let input = dsstc_tensor::RandomMatrixBuilder::new(4, 256).sparsity(0.4).seed(1).build();
        let out = m.forward(r.kernel(), &input);
        let mut reference = input.clone();
        for layer in &m.layers {
            let a_enc = r.kernel().encode_a(&reference);
            reference = r.kernel().execute_encoded_scalar(&a_enc, &layer.weights);
            if layer.relu {
                reference = reference.relu();
            }
        }
        let non_finite = reference.as_slice().iter().filter(|x| !x.is_finite()).count();
        assert!(non_finite > 0, "the walk must end on non-finite features");
        assert_eq!((out.rows(), out.cols()), (reference.rows(), reference.cols()));
        for (i, (a, b)) in out.as_slice().iter().zip(reference.as_slice()).enumerate() {
            // Any NaN matches any NaN (docs/ARCHITECTURE.md, "Bit-identity
            // contract").
            assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()), "{i}: {a} vs {b}");
        }
    }

    #[test]
    fn concurrent_gets_for_one_key_encode_exactly_once() {
        let r = std::sync::Arc::new(repo());
        let key = ModelKey::new(ModelId::ResNet50, None);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || r.get(key))
            })
            .collect();
        let models: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(r.counters().misses, 1, "one caller loads, the rest wait and hit");
        assert_eq!(r.counters().hits, 3);
        for m in &models[1..] {
            assert!(Arc::ptr_eq(&models[0], m), "all callers share one artifact");
        }
    }

    #[test]
    fn a_slow_load_does_not_block_gets_for_other_keys() {
        // Thread A encodes VGG-16 (the most layers); thread B's BERT get
        // must complete while A may still be loading — i.e. without ever
        // waiting on A. We can't control interleaving exactly, but both
        // finishing with two misses and no deadlock exercises the
        // in-flight path under concurrency.
        let r = std::sync::Arc::new(repo());
        let a = {
            let r = std::sync::Arc::clone(&r);
            std::thread::spawn(move || r.get(ModelKey::new(ModelId::Vgg16, None)))
        };
        let b = {
            let r = std::sync::Arc::clone(&r);
            std::thread::spawn(move || r.get(ModelKey::new(ModelId::BertBase, None)))
        };
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(r.counters().misses, 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn proxies_are_deterministic_across_repositories() {
        let key = ModelKey::new(ModelId::ResNet50, None);
        let a = repo().get(key);
        let b = repo().get(key);
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            assert_eq!(la.weights.decode(), lb.weights.decode(), "{}", la.name);
        }
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn forward_rejects_wrong_width() {
        let r = repo();
        let m = r.get(ModelKey::new(ModelId::BertBase, None));
        let _ = m.forward(r.kernel(), &Matrix::zeros(2, 63));
    }

    #[test]
    #[should_panic(expected = "encoding spec does not match")]
    fn forward_rejects_a_foreign_kernel() {
        let r = repo();
        let m = r.get(ModelKey::new(ModelId::BertBase, None));
        let foreign = r.kernel_for(EncodingSpec::for_gpu(&GpuConfig::a100()));
        let _ = m.forward(&foreign, &Matrix::zeros(2, 64));
    }

    #[test]
    fn lru_evicts_past_the_entry_budget() {
        let r = repo().with_budget(CacheBudget { max_entries: 2, max_bytes: u64::MAX });
        let k1 = ModelKey::new(ModelId::RnnLm, Some(0.8));
        let k2 = ModelKey::new(ModelId::RnnLm, Some(0.9));
        let k3 = ModelKey::new(ModelId::RnnLm, Some(0.95));
        let _ = r.get(k1);
        let _ = r.get(k2);
        let _ = r.get(k1); // k1 is now more recently used than k2
        let _ = r.get(k3); // evicts k2
        assert_eq!(r.len(), 2);
        assert_eq!(r.counters().evictions, 1);
        let misses_before = r.counters().misses;
        let _ = r.get(k1);
        let _ = r.get(k3);
        assert_eq!(r.counters().misses, misses_before, "survivors still hit");
        let _ = r.get(k2);
        assert_eq!(r.counters().misses, misses_before + 1, "the evicted key re-encodes");
    }

    #[test]
    fn byte_budget_bounds_the_cache_and_keeps_the_newest_entry() {
        // A budget below one artifact still keeps the latest insert alive.
        let r = repo().with_budget(CacheBudget { max_entries: usize::MAX, max_bytes: 1 });
        let m = r.get(ModelKey::new(ModelId::BertBase, None));
        assert_eq!(r.len(), 1);
        assert!(r.cached_bytes() >= m.encoded_bytes());
        let _ = r.get(ModelKey::new(ModelId::RnnLm, None));
        assert_eq!(r.len(), 1, "over-budget cache holds only the newest artifact");
        assert_eq!(r.counters().evictions, 1);
    }

    #[test]
    fn disk_store_round_trips_and_survives_a_restart() {
        let dir = TempDir::new("roundtrip");
        let key = ModelKey::new(ModelId::BertBase, Some(0.9));
        let cold = {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let m = r.get(key);
            assert!(!m.from_disk);
            assert_eq!(r.counters().fresh_encodes, 1);
            m
        };
        // "Restart": a fresh repository over the same directory.
        let r2 = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let warm = r2.get(key);
        assert!(warm.from_disk, "second process restores from disk");
        let counters = r2.counters();
        assert_eq!(counters.disk_loads, 1);
        assert_eq!(counters.fresh_encodes, 0);
        assert!(counters.disk_load_ms >= 0.0);
        assert_eq!(warm.layers.len(), cold.layers.len());
        for (c, w) in cold.layers.iter().zip(&warm.layers) {
            assert_eq!(c.weights, w.weights, "{}", c.name);
            assert_eq!(c.name, w.name);
        }
        // The restored artifact serves identical outputs.
        let input = Matrix::random_sparse(2, 32, 0.4, dsstc_tensor::SparsityPattern::Uniform, 5);
        assert!(
            cold.forward(r2.kernel(), &input).approx_eq(&warm.forward(r2.kernel(), &input), 0.0),
            "bit-identical outputs"
        );
    }

    #[test]
    fn disk_artifacts_are_keyed_per_spec_and_proxy_dim() {
        let dir = TempDir::new("keys");
        let key = ModelKey::new(ModelId::RnnLm, Some(0.9));
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let _ = r.get_for(key, EncodingSpec::for_gpu(&GpuConfig::v100()));
        let _ = r.get_for(key, EncodingSpec::for_gpu(&GpuConfig::a100()));
        // A different proxy width writes a third artifact.
        let r64 = ModelRepository::new(GpuConfig::v100(), 64).with_disk_cache(dir.path());
        let _ = r64.get(key);
        let files = artifact_names(dir.path());
        assert_eq!(files.len(), 3, "one artifact per (spec, proxy): {files:?}");
        assert!(files.iter().all(|f| f.starts_with("rnnlm-s0900")), "{files:?}");
        // The lifecycle bookkeeping rides along: the last toucher's scan
        // saw all three artifacts.
        assert_eq!(r64.counters().store_entries, 3);
    }

    #[test]
    fn corrupt_or_stale_artifacts_fall_back_to_a_fresh_encode() {
        let dir = TempDir::new("corrupt");
        let key = ModelKey::new(ModelId::BertBase, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(key);
        }
        // Truncate the artifact to garbage.
        let file = dir.path().join(&artifact_names(dir.path())[0]);
        std::fs::write(&file, b"DSMRgarbage").unwrap();
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let m = r.get(key);
        assert!(!m.from_disk, "corrupt artifact must not be served");
        let counters = r.counters();
        assert_eq!((counters.disk_loads, counters.fresh_encodes), (0, 1));
        // The fresh encode rewrote the artifact; a third repository warms.
        let r3 = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        assert!(r3.get(key).from_disk, "rewritten artifact restores cleanly");
    }

    /// Artifact filenames in `dir`, sorted (skips the lock file).
    pub(crate) fn artifact_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.ends_with(".dsstc"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn parse_artifact_name_round_trips_every_model_and_sparsity() {
        for model in ModelId::ALL {
            for sparsity in [None, Some(0.9)] {
                let key = ModelKey::new(model, sparsity);
                for gpu in [GpuConfig::v100(), GpuConfig::a100()] {
                    let spec = EncodingSpec::for_gpu(&gpu);
                    let name = artifact_name(key, 32, spec);
                    let (parsed_key, dim, spec_id) =
                        parse_artifact_name(&name).unwrap_or_else(|| panic!("parse {name}"));
                    assert_eq!(parsed_key, key, "{name}");
                    assert_eq!(dim, 32, "{name}");
                    assert_eq!(spec_id, spec.id(), "{name}");
                }
            }
        }
    }

    #[test]
    fn parse_artifact_name_rejects_malformed_names() {
        for name in [
            "",
            ".dsstc-store.lock",
            "rnnlm-s0900-d32",               // no suffix
            "nonesuch-s0900-d32-spec.dsstc", // unknown slug
            "rnnlm-x0900-d32-spec.dsstc",    // bad sparsity field
            "rnnlm-s1500-d32-spec.dsstc",    // sparsity over 1000 permille
            "rnnlm-s0900-32-spec.dsstc",     // bad dim field
            "rnnlm-s0900-d0-spec.dsstc",     // zero dim
            "rnnlm-s0900-d32-.dsstc",        // empty spec id
            "rnnlm-s0900.dsstc",             // too few fields
            "vgg16-table-dxx-spec.dsstc",    // non-numeric dim
        ] {
            assert!(parse_artifact_name(name).is_none(), "{name:?} must not parse");
        }
    }

    #[test]
    fn warm_boot_restores_artifacts_so_the_first_request_hits() {
        let dir = TempDir::new("warmboot");
        let spec = EncodingSpec::for_gpu(&GpuConfig::v100());
        let k1 = ModelKey::new(ModelId::RnnLm, Some(0.9));
        let k2 = ModelKey::new(ModelId::BertBase, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(k1);
            let _ = r.get(k2);
        }
        // "Restart": warm boot restores both artifacts into memory.
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[spec], 2);
        assert_eq!(report.restored, 2);
        assert_eq!(report.warmed(), 2);
        assert_eq!((report.healed, report.reencoded, report.skipped), (0, 0, 0));
        assert!(report.elapsed_ms >= 0.0);
        let counters = r.counters();
        assert_eq!(counters.fresh_encodes, 0, "warm boot never re-encodes intact artifacts");
        assert_eq!(counters.disk_loads, 2);
        assert_eq!(counters.warm_restored, 2);
        assert_eq!(counters.store_entries, 2);
        assert!(counters.store_bytes > 0);
        // The first request after restart is a memory hit.
        let hits_before = r.counters().hits;
        let m = r.get(k1);
        assert_eq!(r.counters().hits, hits_before + 1, "first request after warm boot hits");
        assert!(m.from_disk);
    }

    #[test]
    fn warm_boot_without_a_disk_tier_is_a_no_op() {
        let r = repo();
        let report = r.warm_boot(&[r.default_spec()], 4);
        assert_eq!(report, WarmBootReport { elapsed_ms: report.elapsed_ms, ..Default::default() });
        assert!(r.is_empty());
    }

    #[test]
    fn warm_boot_heals_a_corrupt_artifact_in_place() {
        let dir = TempDir::new("heal");
        let spec = EncodingSpec::for_gpu(&GpuConfig::v100());
        let key = ModelKey::new(ModelId::BertBase, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(key);
        }
        let file = dir.path().join(&artifact_names(dir.path())[0]);
        std::fs::write(&file, b"DSMR\x01\x00garbage").unwrap();
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[spec], 1);
        assert_eq!((report.restored, report.healed), (0, 1));
        assert_eq!(r.counters().fresh_encodes, 1, "healing pays one fresh encode");
        // The rewrite is durable: a third repository restores cleanly.
        let r3 = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        assert!(r3.get(key).from_disk);
    }

    #[test]
    fn warm_boot_reencodes_stale_spec_artifacts_for_the_current_pool() {
        let dir = TempDir::new("respec");
        let a100 = EncodingSpec::for_gpu(&GpuConfig::a100());
        let v100 = EncodingSpec::for_gpu(&GpuConfig::v100());
        let key = ModelKey::new(ModelId::RnnLm, Some(0.9));
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get_for(key, a100);
        }
        // The pool changed: only V100 encodings are wanted now.
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[v100], 1);
        assert_eq!(report.reencoded, 1);
        assert_eq!(report.restored, 0);
        let files = artifact_names(dir.path());
        assert_eq!(files.len(), 1, "stale artifact replaced, not accumulated: {files:?}");
        assert!(files[0].contains(&v100.id()), "{files:?}");
        // The re-encoded model is already resident: the next get hits.
        let hits_before = r.counters().hits;
        let _ = r.get_for(key, v100);
        assert_eq!(r.counters().hits, hits_before + 1);
    }

    #[test]
    fn warm_boot_skips_artifacts_of_a_foreign_proxy_width() {
        let dir = TempDir::new("foreign");
        let spec = EncodingSpec::for_gpu(&GpuConfig::v100());
        let key = ModelKey::new(ModelId::RnnLm, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 64).with_disk_cache(dir.path());
            let _ = r.get(key);
        }
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[spec], 1);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.warmed(), 0);
        assert!(r.is_empty(), "foreign-width artifacts are not loaded");
        assert_eq!(artifact_names(dir.path()).len(), 1, "and not deleted");
    }

    #[test]
    fn warm_boot_sweeps_temp_files_and_unparseable_names() {
        let dir = TempDir::new("sweep");
        let spec = EncodingSpec::for_gpu(&GpuConfig::v100());
        let key = ModelKey::new(ModelId::BertBase, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(key);
        }
        std::fs::write(dir.path().join("bertbase-table-d32-x.dsstc.tmp-99-0"), b"half").unwrap();
        std::fs::write(dir.path().join("nonesuch-s0900-d32-spec.dsstc"), b"junk").unwrap();
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[spec], 1);
        assert_eq!(report.orphans_removed, 2);
        assert_eq!(report.restored, 1);
        assert_eq!(artifact_names(dir.path()).len(), 1, "only the real artifact survives");
        assert!(!dir.path().join("nonesuch-s0900-d32-spec.dsstc").exists());
    }

    #[test]
    fn gc_store_evicts_least_recently_restored_artifacts_past_the_budget() {
        let dir = TempDir::new("gc");
        let keys: Vec<ModelKey> = [800, 900, 950]
            .iter()
            .map(|&p| ModelKey::new(ModelId::RnnLm, Some(p as f64 / 1e3)))
            .collect();
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            for &k in &keys {
                let _ = r.get(k);
            }
        }
        assert_eq!(artifact_names(dir.path()).len(), 3);
        // Budget of two entries: the oldest (s0800, persisted first) goes.
        let r = ModelRepository::new(GpuConfig::v100(), 32)
            .with_disk_cache(dir.path())
            .with_store_budget(CacheBudget { max_entries: 2, max_bytes: u64::MAX });
        let removed = r.gc_store();
        assert_eq!(removed, 1);
        let files = artifact_names(dir.path());
        assert_eq!(files.len(), 2);
        assert!(!files.iter().any(|f| f.contains("s0800")), "LRU artifact evicted: {files:?}");
        let counters = r.counters();
        assert_eq!(counters.store_entries, 2);
        assert!(counters.store_bytes > 0);
        assert_eq!(counters.store_gc_removed, 1);
    }

    #[test]
    fn gc_store_honours_the_byte_budget_but_keeps_at_least_one_artifact() {
        let dir = TempDir::new("gcbytes");
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(ModelKey::new(ModelId::RnnLm, Some(0.8)));
            let _ = r.get(ModelKey::new(ModelId::RnnLm, Some(0.9)));
        }
        let r = ModelRepository::new(GpuConfig::v100(), 32)
            .with_disk_cache(dir.path())
            .with_store_budget(CacheBudget { max_entries: usize::MAX, max_bytes: 1 });
        assert_eq!(r.gc_store(), 1, "over a 1-byte budget, all but one artifact go");
        assert_eq!(artifact_names(dir.path()).len(), 1);
    }

    #[test]
    #[cfg(unix)]
    fn store_lock_excludes_a_second_holder() {
        let dir = TempDir::new("lock");
        std::fs::create_dir_all(dir.path()).unwrap();
        let first = lock_store(dir.path(), true);
        assert!(first.is_some(), "uncontended lock acquires");
        // The lock is per open-file-description, so a second handle in this
        // process stands in for a second server sharing the store.
        assert!(lock_store(dir.path(), true).is_none(), "held lock excludes a second holder");
        drop(first);
        assert!(lock_store(dir.path(), true).is_some(), "drop releases");
    }
}
