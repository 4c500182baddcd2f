package gateway

// noteCompleted is an unlabeled completion, the form the goal-accounting
// tests feed: the family feeds only the retune controller's mix, never a
// goal level.
func (t *tenantState) noteCompleted(sqlText string, seconds float64, timedOut, errored bool) bool {
	return t.noteFinished("", sqlText, seconds, timedOut, errored)
}
