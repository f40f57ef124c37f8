"""Community credentials, proxy certificates, and GridShib SAML.

TeraGrid science gateways authenticate with a *community* credential and
are required to attach, per request, a SAML assertion naming the real
gateway user behind it (the GridShib model, Scavo & Welch 2008).  The
daemon therefore generates short-lived *derivative proxy certificates*
carrying the gateway-user attribute; resource-side services validate the
chain and log the attributed identity for end-to-end accounting.

Cryptography is simulated (HMAC chains over the declared fields), but the
lifecycle — issue, derive with lifetime, expire, verify chain, extract
SAML attributes — matches the operational behaviour the daemon exercises.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass, field


class CertificateInvalid(Exception):
    pass


@dataclass(frozen=True)
class CommunityCredential:
    """The gateway's long-lived credential (kept on the daemon host only).

    The private key never leaves this object; the portal host must never
    hold one — tests assert that separation.
    """

    distinguished_name: str
    _secret: str = field(repr=False, default_factory=lambda:
                         secrets.token_hex(16))

    def sign(self, payload: str) -> str:
        return hmac.new(self._secret.encode(), payload.encode(),
                        hashlib.sha256).hexdigest()


@dataclass(frozen=True)
class SAMLAssertion:
    """GridShib attribute assertion: the real user behind the community
    credential, plus provenance metadata."""

    gateway_name: str
    gateway_user: str
    user_email: str = ""

    def attributes(self):
        return {
            "urn:teragrid:gateway": self.gateway_name,
            "urn:teragrid:gateway-user": self.gateway_user,
            "urn:teragrid:user-email": self.user_email,
        }


@dataclass(frozen=True)
class ProxyCertificate:
    """A short-lived derivative proxy with embedded SAML extensions."""

    subject: str
    issuer_dn: str
    issued_at: float
    lifetime_s: float
    saml: SAMLAssertion
    signature: str

    @property
    def expires_at(self):
        return self.issued_at + self.lifetime_s

    def is_valid(self, now):
        return now < self.expires_at

    def payload(self):
        return "|".join([
            self.subject, self.issuer_dn, f"{self.issued_at:.3f}",
            f"{self.lifetime_s:.3f}", self.saml.gateway_user,
            self.saml.gateway_name])


class ProxyFactory:
    """Issues and verifies proxies for one community credential."""

    DEFAULT_LIFETIME_S = 12 * 3600.0

    def __init__(self, credential: CommunityCredential, clock):
        self.credential = credential
        self.clock = clock
        # The last (payload, signature) pair whose HMAC checked out: the
        # daemon verifies the same proxy several times per polled job.
        self._verified = None

    def issue(self, saml: SAMLAssertion, lifetime_s=None):
        lifetime_s = lifetime_s or self.DEFAULT_LIFETIME_S
        subject = (f"{self.credential.distinguished_name}"
                   f"/CN=proxy/{saml.gateway_user}")
        draft = ProxyCertificate(
            subject=subject,
            issuer_dn=self.credential.distinguished_name,
            issued_at=self.clock.now, lifetime_s=lifetime_s,
            saml=saml, signature="")
        signature = self.credential.sign(draft.payload())
        return ProxyCertificate(
            subject=subject,
            issuer_dn=self.credential.distinguished_name,
            issued_at=draft.issued_at, lifetime_s=lifetime_s,
            saml=saml, signature=signature)

    def verify(self, proxy: ProxyCertificate):
        """Validate signature chain and lifetime; raises on failure.

        A proxy whose payload and signature match the last pair that
        passed skips only the HMAC; issuer and expiry are checked on
        every call.
        """
        payload, memo = proxy.payload(), self._verified
        if (memo is None or memo[0] != payload
                or not hmac.compare_digest(memo[1], proxy.signature)):
            expected = self.credential.sign(payload)
            if not hmac.compare_digest(expected, proxy.signature):
                raise CertificateInvalid(
                    f"Signature chain broken for {proxy.subject}")
            self._verified = (payload, proxy.signature)
        if proxy.issuer_dn != self.credential.distinguished_name:
            raise CertificateInvalid("Issuer mismatch")
        if not proxy.is_valid(self.clock.now):
            raise CertificateInvalid(
                f"Proxy for {proxy.saml.gateway_user} expired")
        return True
