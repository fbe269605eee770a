package bad

// Even a blank import of the scrape-surface renderer is forbidden in
// simulation code: promtext renders recorded telemetry back out, so
// holding it is a telemetry feedback loop waiting to happen.

import _ "repro/internal/obs/promtext" // want obsinert
