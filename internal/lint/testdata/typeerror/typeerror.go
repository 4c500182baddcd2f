// Fixture for the loader: one deliberate type error. LoadFixture must
// reject the package, naming this file and line, before any analyzer
// runs on it.
package typeerror

import "time"

func Stamp() string {
	return time.Now() // deliberate: a time.Time is not a string
}
