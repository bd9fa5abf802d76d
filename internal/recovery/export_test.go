package recovery

// UseGlobalHorizonForTest makes Mount resolve OOB candidates by the rule
// acks outgrew (globalHorizonForTest) until the returned func runs.
func UseGlobalHorizonForTest() (restore func()) {
	globalHorizonForTest = true
	return func() { globalHorizonForTest = false }
}

// UseCheckpointAtTiesForTest makes Mount let a checkpoint mapping stand
// at every equal-stamp tie, without reading its page
// (checkpointWinsTiesForTest), until the returned func runs.
func UseCheckpointAtTiesForTest() (restore func()) {
	checkpointWinsTiesForTest = true
	return func() { checkpointWinsTiesForTest = false }
}

// PatchedCheckpoints returns how many checkpoints patchCheckpoint wrote.
func (m *Manager) PatchedCheckpoints() int { return m.ckptPatched }
