"""Proxy certificates and GridShib SAML extensions."""

import dataclasses

import pytest

from repro.grid.certificates import (CertificateInvalid,
                                     CommunityCredential, ProxyFactory,
                                     SAMLAssertion)
from repro.hpc.simclock import HOUR, SimClock


@pytest.fixture()
def factory():
    clock = SimClock()
    credential = CommunityCredential("/C=US/O=NCAR/OU=AMP/CN=community")
    return clock, ProxyFactory(credential, clock)


class TestProxyLifecycle:
    def test_issue_and_verify(self, factory):
        clock, proxy_factory = factory
        saml = SAMLAssertion("AMP", "metcalfe", "t@ucar.edu")
        proxy = proxy_factory.issue(saml)
        assert proxy_factory.verify(proxy)
        assert proxy.saml.gateway_user == "metcalfe"

    def test_subject_chains_from_community_dn(self, factory):
        _, proxy_factory = factory
        proxy = proxy_factory.issue(SAMLAssertion("AMP", "u"))
        assert proxy.subject.startswith(
            proxy_factory.credential.distinguished_name)

    def test_expiry(self, factory):
        clock, proxy_factory = factory
        proxy = proxy_factory.issue(SAMLAssertion("AMP", "u"),
                                    lifetime_s=1 * HOUR)
        clock.advance(2 * HOUR)
        with pytest.raises(CertificateInvalid):
            proxy_factory.verify(proxy)

    def test_tampered_signature_rejected(self, factory):
        _, proxy_factory = factory
        proxy = proxy_factory.issue(SAMLAssertion("AMP", "u"))
        forged = type(proxy)(
            subject=proxy.subject, issuer_dn=proxy.issuer_dn,
            issued_at=proxy.issued_at, lifetime_s=proxy.lifetime_s,
            saml=SAMLAssertion("AMP", "someone-else"),
            signature=proxy.signature)
        with pytest.raises(CertificateInvalid):
            proxy_factory.verify(forged)

    def test_foreign_credential_rejected(self, factory):
        clock, proxy_factory = factory
        other = ProxyFactory(
            CommunityCredential("/C=US/O=Evil/CN=attacker"), clock)
        foreign = other.issue(SAMLAssertion("AMP", "u"))
        with pytest.raises(CertificateInvalid):
            proxy_factory.verify(foreign)

    def test_saml_attributes(self):
        saml = SAMLAssertion("AMP", "metcalfe", "t@ucar.edu")
        attrs = saml.attributes()
        assert attrs["urn:teragrid:gateway-user"] == "metcalfe"
        assert attrs["urn:teragrid:gateway"] == "AMP"

    def test_credential_secret_not_in_repr(self):
        credential = CommunityCredential("/CN=x")
        assert credential._secret not in repr(credential)


class TestVerifyMemo:
    """verify() remembers the last (payload, signature) pair that passed
    the HMAC check; a memo hit skips only the HMAC."""

    def test_tampered_after_memoized_verify_misses_and_raises(self, factory):
        _, proxy_factory = factory
        proxy = proxy_factory.issue(SAMLAssertion("AMP", "u"))
        assert proxy_factory.verify(proxy)
        assert proxy_factory.verify(proxy)          # memo hit
        forged_signature = dataclasses.replace(proxy, signature="tampered")
        forged_payload = dataclasses.replace(
            proxy, saml=SAMLAssertion("AMP", "someone-else"))
        for forged in (forged_signature, forged_payload):
            with pytest.raises(CertificateInvalid):
                proxy_factory.verify(forged)
        assert proxy_factory.verify(proxy)

    def test_memo_hit_skips_only_the_hmac(self, factory, monkeypatch):
        clock, proxy_factory = factory
        proxy = proxy_factory.issue(SAMLAssertion("AMP", "u"),
                                    lifetime_s=1 * HOUR)
        signed = []
        original = CommunityCredential.sign
        monkeypatch.setattr(
            CommunityCredential, "sign",
            lambda self, payload: signed.append(payload)
            or original(self, payload))
        for _ in range(3):
            assert proxy_factory.verify(proxy)
        assert len(signed) == 1
        clock.advance(2 * HOUR)                     # expiry still checked
        with pytest.raises(CertificateInvalid):
            proxy_factory.verify(proxy)

    def test_memo_is_per_credential(self, factory):
        clock, proxy_factory = factory
        proxy = proxy_factory.issue(SAMLAssertion("AMP", "u"))
        assert proxy_factory.verify(proxy)
        other = ProxyFactory(
            CommunityCredential("/C=US/O=Evil/CN=attacker"), clock)
        with pytest.raises(CertificateInvalid):
            other.verify(proxy)
