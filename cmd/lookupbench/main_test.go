package main

import "testing"

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("1000, 5000,10000")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1000, 5000, 10000}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "abc", "0", "-5", "100,,200"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) should fail", bad)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	tests := map[int]string{
		512:     "512 B",
		2048:    "2.0 KiB",
		3 << 20: "3.0 MiB",
		1536:    "1.5 KiB",
	}
	for n, want := range tests {
		if got := fmtBytes(n); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
