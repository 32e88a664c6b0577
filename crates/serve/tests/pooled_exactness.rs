//! Zoo-wide bit-exactness of the deduplicated weight-stream pool.
//!
//! Weight streams are pure functions of their `(mixed seed, quantized
//! threshold)` key, so storing one canonical stream per key must not
//! change a single logit bit versus giving every lane its own stream
//! words. The constants below were recorded while that per-lane
//! (materialized) layout still existed, in the same run that checked the
//! two layouts' logits bit for bit on exactly these images; pinning them
//! keeps the equivalence enforced on every trainable zoo model with its
//! real dataset shapes. The ImageNet-scale prepare-only descriptors are
//! covered structurally by
//! `zoo_registry::imagenet_scale_builtin_zoo_resolves_evicts_and_recompiles`
//! (their forward pass is intentionally out of scope).

use acoustic_simfunc::{ScSimulator, SimConfig};
use acoustic_train::ZooModel;

/// `(slug, PreparedNetwork::content_digest, logits_digest)` at stream
/// length 64. CIFAR-10 and SVHN share an architecture and initial
/// weights, hence one bank digest; their test images differ.
const PINNED: [(&str, u64, u64); 3] = [
    ("lenet5", 0xa731_a6b5_7cbc_781f, 0x44e2_f8a8_103a_c885),
    ("cifar10-cnn", 0x59fa_c21c_5d82_2009, 0xad74_af82_00da_c885),
    ("svhn-cnn", 0x59fa_c21c_5d82_2009, 0x9235_7d6a_77fa_c885),
];

/// FNV-1a over every image's logit count and logit bit patterns, in order.
fn logits_digest(logits: &[Vec<f32>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    for image in logits {
        fold(image.len() as u64);
        for v in image {
            fold(u64::from(v.to_bits()));
        }
    }
    h
}

#[test]
fn pooled_logits_are_bit_identical_on_every_trainable_zoo_model() {
    assert_eq!(ZooModel::TRAINABLE.len(), PINNED.len());
    for (model, &(slug, bank_digest, want_logits)) in ZooModel::TRAINABLE.iter().zip(&PINNED) {
        assert_eq!(model.slug(), slug);
        let net = model.network().unwrap();
        let kind = model.data_kind().expect("trainable models have datasets");
        let images: Vec<_> = kind
            .generate(0, 3, 17)
            .test
            .into_iter()
            .map(|(t, _)| t)
            .collect();

        let sim = ScSimulator::new(SimConfig::with_stream_len(64).unwrap());
        let prepared = sim.prepare(&net).unwrap();
        assert_eq!(
            prepared.content_digest(),
            bank_digest,
            "{slug}: weight banks changed"
        );
        let stats = prepared.dedup_stats();
        assert!(
            stats.resident_bytes <= stats.materialized_bytes,
            "{slug}: pooling never costs more than materializing"
        );

        let logits: Vec<Vec<f32>> = images
            .iter()
            .map(|x| sim.run_prepared(&prepared, x).unwrap().as_slice().to_vec())
            .collect();
        assert_eq!(
            logits_digest(&logits),
            want_logits,
            "{slug}: logits diverged from the recorded materialized-layout logits"
        );
    }
}
