package main

import (
	"testing"

	"respat/internal/harness"
	"respat/internal/platform"
)

func TestTable1ReferenceCheck(t *testing.T) {
	rows, err := harness.Table1(platform.Table2())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTable1(rows); err != nil {
		t.Fatalf("reference rows rejected: %v", err)
	}
	for i := range rows {
		if rows[i].Platform == "Hera" && rows[i].Plan.M == 17 {
			rows[i].Plan.M = 16
		}
	}
	if err := checkTable1(rows); err == nil {
		t.Fatal("a wrong Hera PDMV m* passed the check")
	}
}

func TestFig6Check(t *testing.T) {
	rows := make([]harness.Fig6Row, 0, 24)
	for _, p := range platform.Table2() {
		for range 6 {
			rows = append(rows, harness.Fig6Row{Platform: p.Name, Predicted: 0.1, Simulated: 0.104})
		}
	}
	if err := checkFig6(rows); err != nil {
		t.Fatalf("gaps within bounds rejected: %v", err)
	}
	rows[0].Simulated = 0.106 // Hera: above 0.5 %
	if err := checkFig6(rows); err == nil {
		t.Fatal("a Hera gap above 0.5 % passed")
	}
}
