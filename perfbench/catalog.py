"""Workload names and the metrics the benchmark reports, with their units.

Kept free of heavy imports so the launcher and the self-test can read it.
Each per-layer row names the end-to-end figure it should move, and on
which workload; ROADMAP item numbers are in brackets.
"""

WORKLOADS = ("jump-19937", "scan-19937", "small-k")

#: (name, unit, bound): measured with tracing off, reported with ``--trace 0``.
END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)

#: (name, unit, what it should move), reported with ``--trace 1``.
PER_LAYER = (
    ("jump_s", "s", "wall_s on jump-19937"),
    ("badseed_s", "s", "wall_s on small-k"),
    ("entropy_s", "s", "wall_s on small-k"),
    ("charpoly_s", "s", "wall_s on small-k"),
    ("matrix_s", "s", "wall_s on scan-19937"),
    ("minpoly_s", "s", "wall_s on scan-19937"),
    ("zeroland_s", "s", "wall_s on scan-19937"),
    ("bench_s", "s", "wall_s on scan-19937"),
    ("gf2poly.pow_mod_s", "s", "jump_s on jump-19937 [3b]; badseed_s on small-k [3a]"),
    ("gf2poly.pow_mod_exp_bits", "bits", "badseed_s on small-k [3a: ~k bits -> ~log2 d]"),
    ("gf2poly.pow_mod_ms_per_bit", "ms/bit", "jump_s on jump-19937 [3b]"),
    ("gf2poly.apply_transition_polynomial_s", "s", "jump_s on jump-19937; badseed_s on small-k [4]"),
    ("gf2poly.horner_steps", "count", "jump_s on jump-19937; badseed_s on small-k [4]"),
    ("generators.horner_step_ns", "ns", "jump_s on jump-19937; badseed_s on small-k [4]"),
    ("gf2poly.berlekamp_massey_s", "s", "minpoly_s on scan-19937"),
    ("gf2poly.bm_bits", "bits", "minpoly_s on scan-19937"),
    ("gf2poly.output_bit_sequence_s", "s", "minpoly_s on scan-19937"),
    ("gf2poly.minimal_polynomial_s", "s", "setup_s; jump_s on jump-19937"),
    ("generators.state_vector_s", "s", "badseed_s on small-k [4: one codec]"),
    ("generators.set_state_vector_s", "s", "badseed_s on small-k [4: one codec]"),
    ("generators.next_real_ns", "ns", "bench_s on scan-19937 [4]"),
    ("ensemble.probe_images_s", "s", "matrix_s on scan-19937"),
    ("ensemble.probe_lanes", "count", "matrix_s on scan-19937"),
    ("ensemble.state_rows_s", "s", "matrix_s on scan-19937"),
    ("bitlinalg.extract_transition_matrix_s", "s", "matrix_s on scan-19937; entropy_s on small-k"),
    ("bitlinalg.transpose_s", "s", "matrix_s on scan-19937; entropy_s on small-k"),
    ("bitlinalg.transpose_bytes", "bytes", "matrix_s on scan-19937; entropy_s on small-k"),
    ("bitlinalg.write_matrix_s", "s", "matrix_s on scan-19937"),
    ("bitlinalg.write_matrix_bytes", "bytes", "matrix_s on scan-19937"),
    ("zeroland.unit_seed_sweep_s", "s", "zeroland_s on scan-19937"),
    ("zeroland.sweep_lane_steps", "count", "zeroland_s on scan-19937"),
    ("zeroland.replay_seed_s", "s", "zeroland_s on scan-19937"),
    ("spectral.to_real_matrix_s", "s", "entropy_s on small-k [2]"),
    ("spectral.eigenvalues_s", "s", "entropy_s on small-k [2]"),
    ("spectral.eigen_k3", "count", "entropy_s on small-k [2]"),
    ("spectral.spectrum_csv_s", "s", "entropy_s on small-k [2]"),
    ("charpoly.brute_charpoly_s", "s", "charpoly_s on small-k"),
    ("charpoly.brute_charpoly_calls", "count", "charpoly_s on small-k"),
    ("charpoly.mt_charpoly_s", "s", "charpoly_s on small-k"),
    ("cli.self_s", "s", "every command time"),
    ("trace.overhead_s", "s", "none: traced minus untraced wall_s"),
    ("trace.span_errors", "count", "none: spans left open or closed by an exception"),
)
