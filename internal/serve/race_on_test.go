//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so pooled paths allocate more than they do in production.
const raceEnabled = true
