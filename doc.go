// Package repro is a from-scratch Go reproduction of Ming-Chuan Wu and
// Alejandro P. Buchmann, "Encoded Bitmap Indexing for Data Warehouses"
// (ICDE 1998).
//
// The library lives under internal/: internal/core implements the encoded
// bitmap index (the paper's contribution) on top of the substrates
// internal/bitvec, internal/boolmin (Quine–McCluskey logical reduction),
// and internal/encoding (well-defined encodings, chains, hierarchy /
// total-order / range-based variants); internal/simplebitmap,
// internal/bsi and internal/btree are the baselines the paper compares
// against. See README.md, DESIGN.md and EXPERIMENTS.md.
//
// bench_test.go in this directory holds one benchmark per table and
// figure of the paper's evaluation plus ablations; cmd/ebibench prints
// the same results as text tables.
package repro
