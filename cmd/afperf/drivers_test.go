package main

import (
	"math"
	"testing"
)

func TestLayerDriversTinyCount(t *testing.T) {
	for _, d := range layerDrivers {
		ns := measureDriver(d, 64, 1)
		if !(ns > 0) || math.IsInf(ns, 0) {
			t.Errorf("%s = %v ns per call, want positive and finite", d.name, ns)
		}
	}
}
