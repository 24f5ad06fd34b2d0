package main

import (
	"bytes"
	"os"
	"testing"
)

// TestPaperTablesGolden pins the reproduced paper figures: the output of
//
//	lookupbench -table2 -fig3 -fig4 -throughput -sizes 1000 -trace 2000
//
// must match testdata/paper_tables.golden byte for byte. Every column in
// it is modeled cycles or modeled memory, so it is deterministic. Table I
// is left out because it prints wall-clock ns. A change that moves the
// hardware model on purpose regenerates the file with the command above.
func TestPaperTablesGolden(t *testing.T) {
	var out bytes.Buffer
	r := runner{w: &out, sizes: []int{1000}, traceN: 2000, seed: 1}
	r.tableII()
	r.fig3()
	r.fig4()
	r.throughput()
	want, err := os.ReadFile("testdata/paper_tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("paper tables moved:\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
}
