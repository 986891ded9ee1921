#include "util/env.hh"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "util/logging.hh"
#include "util/strings.hh"

namespace gws {

std::size_t
envSize(const char *name, std::size_t fallback)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return fallback;
    const std::string v = trim(raw);
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || end == v.c_str() || *end != '\0' ||
        errno == ERANGE) {
        GWS_WARN(name, " must be a non-negative integer, got '", raw,
                 "'; using default ", fallback);
        return fallback;
    }
    return static_cast<std::size_t>(n);
}

} // namespace gws
