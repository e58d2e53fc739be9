// Package par runs a fixed set of indexed tasks concurrently, for the
// builders that cut their input into one range per worker.
package par

import "sync"

// Do runs fn(0) … fn(n-1) concurrently (inline when n is 1), waits for
// all of them and returns the first error in index order.
func Do(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
