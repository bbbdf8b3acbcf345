package par

// For stands in for the real pool's entry point: hotalloc keys on the
// import path, not the body.
func For(workers, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
