package baseline

import "errors"

// errStop is the internal sentinel used to unwind a backtracking search
// when the emit callback asks for early termination. It never escapes
// the package: the stream entry points translate it to a nil error.
var errStop = errors.New("baseline: stop enumeration")

// sweep translates the sentinel protocol at a stream entry point.
func sweep(err error) error {
	if errors.Is(err, errStop) {
		return nil
	}
	return err
}
