package recovery

// RaceEnabled reports a -race build.
const RaceEnabled = raceEnabled

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

// InGrownPatch reports whether a checkpoint write is in flight that
// patched an image whose set of pages had grown since its slot's last
// encode.
func (m *Manager) InGrownPatch() bool { return m.ckptBusy && m.ckpt.grown }

// CheckpointInFlight reports a checkpoint write begun and not yet durable.
func (m *Manager) CheckpointInFlight() bool { return m.ckptBusy }

// CutSSDConfig and CutCtrlConfig are the power-cut tests' device.
var CutSSDConfig, CutCtrlConfig = cutSSDConfig, cutCtrlConfig

// ReferenceImage is the reference encoder's checkpoint image of ctrl's
// state.
var ReferenceImage = referenceImage
