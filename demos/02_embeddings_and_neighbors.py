"""Embed profiles with signed feature hashing and retrieve nearest neighbors.

Each of the five text fields hashes to its own L2-normalized block; a profile
row is the concatenation (5 x d wide). Exact search, memory-bounded batched
search, and the field-weighted search all honor the same deterministic tie
rule, so neighbor lists are fully reproducible.
"""

import numpy as np

from fairaudit import (
    embed_corpus,
    generate_synthetic_corpus,
    hash_embed_field,
    knn_batched,
    knn_exact,
    knn_feature_reranked,
    pairwise_similarity,
)

# similar texts land near each other, disjoint vocabularies nearly orthogonal
a = hash_embed_field("led the robotics club to a national final", 512, seed=0)
b = hash_embed_field("led the robotics team to a regional final", 512, seed=0)
c = hash_embed_field("completely unrelated words about gardening", 512, seed=0)
print(f"cos(similar texts)   = {float(a @ b):+.3f}")
print(f"cos(unrelated texts) = {float(a @ c):+.3f}")
print(f"cosine vs helper     = {pairwise_similarity(a, b):+.3f}")

profiles, latents = generate_synthetic_corpus(n=400, vocab_size=300, seed=1)
matrix = embed_corpus(profiles, d=96, seed=0)
print(f"\nmatrix: {matrix.n} x {matrix.dim} "
      f"({len(matrix.field_order)} blocks of {matrix.dim_per_field})")

exact = knn_exact(matrix, k=5)
batched = knn_batched(matrix, k=5, batch_size=32)
print(f"batched equals exact bitwise: "
      f"{np.array_equal(exact.neighbors, batched.neighbors) and np.array_equal(exact.scores, batched.scores)}")

# neighborhoods are quality-coherent: neighbors have similar latent q
q = np.array([latents[p.id].q for p in profiles])
neighbor_gap = np.abs(q[exact.neighbors] - q[:, None]).mean()
random_gap = np.abs(q[np.random.default_rng(0).permutation(len(q))] - q).mean()
print(f"mean |q_i - q_neighbor| = {neighbor_gap:.3f} (random pairing {random_gap:.3f})")

# ranking by per-field similarity, weighting the leadership field 3x
reranked = knn_feature_reranked(matrix, k=5, field_weights=[1, 1, 1, 3, 1])
changed = np.mean(np.any(reranked.neighbors != exact.neighbors, axis=1))
print(f"rows whose top-5 changed under leadership-weighted ranking: {changed:.1%}")
