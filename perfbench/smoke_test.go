package main

import "testing"

// TestSmoke runs every workload at toy size and checks both outputs against
// the metric names and units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := smoke("../BENCHMARK.json", t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
