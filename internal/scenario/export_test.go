package scenario

// RunDays advances the world by d full days.
func (w *World) RunDays(d int) {
	for t := 0; t < d*TicksPerDay; t++ {
		w.StepTick()
	}
}
