// Fixture: references both constants so only the stale rows can fire.
#include "obs/sampler.h"
const char* a = gauge::kProcessRssBytes;
const char* b = event::kTaskRetry;
