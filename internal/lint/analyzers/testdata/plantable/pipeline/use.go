package pipeline

func widths() {
	p, _ := PlanFor(33) // want `constant width 33 is outside the plan table range \[0, 32\]`
	_ = p
	r, err := PlanFor(40) // error captured: deliberately testing validation
	_, _ = r, err
	s, _ := PlanFor(10) // in range: fine
	_ = s
}

func laneLoops() uint32 {
	var v [8]uint32
	for i := 0; i < 16; i++ {
		v[i&7] += uint32(i)
	}
	for i := 0; i < 16; i++ {
		v[i] = uint32(i) // want `loop bound 16 exceeds array length 8`
	}
	for i := 0; i < 8; i++ {
		v[i] = uint32(i) // bound matches the lane count: fine
	}
	var w [16]uint32
	for i := 0; i <= 15; i++ {
		w[i] = uint32(i) // inclusive bound still within range: fine
	}
	return v[0] + w[0]
}
