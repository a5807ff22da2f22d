package guardedby

// skipLabelled drops the lock on a labelled continue and never relocks,
// so every iteration after the first such continue reads unlocked: the
// continue is a back edge of the loop it names.
func (s *Series) skipLabelled() {
	s.mu.Lock()
scan:
	for i := 0; i < 3; i++ {
		_ = s.Pages // want `read of Series.Pages without holding s.mu \(//etsqp:guardedby\)`
		if i == 1 {
			s.mu.Unlock()
			continue scan
		}
	}
	s.mu.Unlock()
}

// fallUnlocked releases the lock in one clause and falls through into
// the next, whose read then runs unlocked on that path.
func (s *Series) fallUnlocked(quick bool) int {
	s.mu.Lock()
	n := 0
	switch {
	case quick:
		s.mu.Unlock()
		fallthrough
	default:
		n = len(s.Pages) // want `read of Series.Pages without holding s.mu \(//etsqp:guardedby\)`
	}
	return n
}
