package repro

// CoordinatorConfig exposes the configuration NewCoordinator builds from its
// options to the external tests.
var CoordinatorConfig = coordinatorConfig
