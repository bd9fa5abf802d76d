package recovery

// UseGlobalHorizonForTest makes Mount resolve OOB candidates by the rule
// acks outgrew (globalHorizonForTest) until the returned func runs.
func UseGlobalHorizonForTest() (restore func()) {
	globalHorizonForTest = true
	return func() { globalHorizonForTest = false }
}

// PatchedCheckpoints returns how many checkpoints patchCheckpoint wrote.
func (m *Manager) PatchedCheckpoints() int { return m.ckptPatched }
