package main

// paperReference is what paper_270d must reproduce exactly on a seed:
// the SHA-256 of every figure CSV and the paper-fidelity numbers.
type paperReference struct {
	figures  map[string]string
	fidelity map[string]float64
}

// paperReferences holds the default seed (1) and one held-out seed (7),
// recorded at the commit that added the benchmark.
var paperReferences = map[int64]paperReference{
	1: {
		figures: map[string]string{
			"fig1_blocks_per_hour.csv": "92c426efa7f1b9683ea80dc628f762f5fe7fe688d12c87ac6e17a763aa6f59c8",
			"fig1_delta.csv":           "24d2df2a469e96d909755eceda08389d5e6898916b0b24dfc9c1b3e7c03cabbe",
			"fig1_difficulty.csv":      "7f31fbb6bf9c38256ffdb376f9912d4d22d05a996a1f35755bbd23ab8d4ce532",
			"fig2_difficulty.csv":      "8ee4a9899ad1e4ac03bfca13c3323e116a33dc910d5fc35a80c9b6b4ee57d390",
			"fig2_pct_contract.csv":    "7bb8c8c72d41f2c363f39ff59b34de6dace03afd0d6a55a39e6a8bf735f4b4dd",
			"fig2_tx_per_day.csv":      "51ac06a1700c299b39e4c4027f0c5fbf4ec714a603e815b06558ae1f54e445d8",
			"fig3_hashes_per_usd.csv":  "7e0705b5af903172e2a746cbea6ab6e626a2ddffaf7687dc2e2302d76d4739cb",
			"fig4_echo_pct.csv":        "732a100562c071bcc12c979ab61cf305d09f5c3343ad15b7dc6e42cd93b23b00",
			"fig4_echoes_per_day.csv":  "ebec5685dd3a4f12f177878d0d95bca91284c8c166001fa715d1368e7a54cf22",
			"fig5_top1.csv":            "613c0ad4ec841e7a30973bc71584fa584e2d061422960337b0dfa2d8acec993e",
			"fig5_top3.csv":            "7910340327790bd4a0d2fbd429d08d1c54ce8b5a445935a6d5342646828c2f80",
			"fig5_top5.csv":            "652f1f3516ca30fc4b9f5d13e586939a98ffdf8d4d8ae5f9b12e84ff4d87467f",
		},
		fidelity: map[string]float64{
			"correlation_post_sep":   0.9619487589585487,
			"difficulty_ratio_final": 18.391916344333463,
			"etc_recovery_hours":     39.0,
			"etc_top5_final_share":   0.7136180499597099,
			"peak_etc_echo_pct":      67.8030303030303,
		},
	},
	7: {
		figures: map[string]string{
			"fig1_blocks_per_hour.csv": "682d35357702eebcc59b195d9008627dbc94c2e8d3c6f9ccc445623708514942",
			"fig1_delta.csv":           "53b833a6f8a40185b1f4eed01dd2a89e0e6c2aad263b7fcc3b96961713d8af27",
			"fig1_difficulty.csv":      "ea37bbfa036fbfca81d61873b0567817e21b18dae7cff6b562073ec85f59dfb5",
			"fig2_difficulty.csv":      "5549a7cf94ba5848c8e64f458c2852601d48b3ff15c29728d1f3ff18b366049e",
			"fig2_pct_contract.csv":    "47336160c7e4bf1d0ae0845e6789e277d70417e1a012a5addfb23459f4a7154d",
			"fig2_tx_per_day.csv":      "dbb32abed74756ec3744844b5eea5d90d25abd8162f6e6782572428a3ba48abc",
			"fig3_hashes_per_usd.csv":  "7c74f61a32e10da7d1120ca5abb618e8885ca29042e3d88e2c2017b8160c054d",
			"fig4_echo_pct.csv":        "5c5405453c9cef3ba1ab51e9f0cb3fe749acd9c9258ec58b42ec6ef385382b1b",
			"fig4_echoes_per_day.csv":  "b76f910a4449c4ffb53f6d1e82b86913287425d3665ebe9f662e7bdabf10ee6e",
			"fig5_top1.csv":            "bccbf1c0d76ae88f3cda2cb8e27b2f592e6ad9aff214ae3ddbe44b1fb9f532cf",
			"fig5_top3.csv":            "d6dd7df6096b516ddaef08b56316222b458bdcc03a1fb22e62c6fc9a30f064a2",
			"fig5_top5.csv":            "8515b8225db8980aea5d3111f8527eb8faf82c9699e76feb0713726d0272f2fa",
		},
		fidelity: map[string]float64{
			"correlation_post_sep":   0.9766837825197234,
			"difficulty_ratio_final": 26.208260835097054,
			"etc_recovery_hours":     34.0,
			"etc_top5_final_share":   0.6700532172230286,
			"peak_etc_echo_pct":      62.4113475177305,
		},
	},
}
