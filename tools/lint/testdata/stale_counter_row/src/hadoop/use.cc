// Fixture: references the counter so only the stale-row check fires.
#include "counters.h"
const char* uses[] = {counter::kMapOutputRecords};
